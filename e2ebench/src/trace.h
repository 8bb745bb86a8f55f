#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced mode, and the
// arithmetic that turns spans into per-layer figures (self time, residual,
// percentiles). Spans are recorded only around calls the benchmark makes
// into the program's modules; nothing inside the program is instrumented.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();
/// CPU time of the calling thread, and of the whole process since it
/// started, in nanoseconds. Neither counts time spent waiting to run, and
/// with the kernel's paravirtual steal-time accounting neither counts time
/// the hypervisor gave the vCPU to another guest.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();

/// What a span wraps. The names are the per-layer metric prefixes.
enum class SpanKind : uint16_t {
  kParse,       // query: ParseSql
  kCompile,     // query: QueryGraph constructor
  kPlan,        // optimizer: Optimizer::Plan (estimate calls are children)
  kEstimate,    // cardest: CardinalityEstimator::EstimateCards
  kRecost,      // optimizer: Optimizer::RecostWithCards
  kExecute,     // exec: Executor::ExecuteCount
  kApplyBatch,  // datagen: StreamingInsertFeed::ApplyNext
  kRefresh,     // service: EstimationService::RefreshIncremental
  kUpdate,      // cardest: IncrementalUpdate of one estimator (refresh child)
  kPhase,       // serve-refresh: one closed- or open-loop replay
  kRequest,     // server: one loopback round trip to CardServer
  kCheck,       // the benchmark's own output checks
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level
  SpanKind kind = SpanKind::kCheck;
  uint16_t tag = 0;     // estimator index where it applies
  uint64_t count = 0;   // work done: sub-plans estimated, tuples produced
  uint32_t thread = 0;  // small per-thread index, in order of first use
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide span sink. Disabled (the untraced mode) it records nothing
/// and a Scope costs one relaxed atomic load.
class Tracer {
 public:
  static Tracer& Get();
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> spans() const;
  size_t size() const;
  /// Writes every span as one tab-separated line; false on I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. The parent defaults to the innermost open Scope on this
/// thread; pass one explicitly for work that runs on another thread.
class Scope {
 public:
  explicit Scope(SpanKind kind, uint16_t tag = 0);
  Scope(SpanKind kind, uint16_t tag, uint64_t parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_count(uint64_t count) { span_.count = count; }
  uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  uint64_t saved_current_ = 0;
  Span span_;
};

/// Percentile by linear interpolation between closest ranks (the numpy
/// default); `p` in [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Total length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of it covered by the union of its direct children.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Index of the calling thread as recorded in Span::thread.
uint32_t ThreadIndex();

/// The untraced remainder of one pass: `wall_ns`, taken by the pass's own
/// stopwatch over [start_ns, start_ns + wall_ns), minus the durations of the
/// top-level spans that thread `thread` (the pass's) started in that window.
int64_t Residual(const std::vector<Span>& spans, uint32_t thread,
                 int64_t start_ns, int64_t wall_ns);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
