#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// NowNs() at the start of main(): set-up is timed from here.
  int64_t start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Figures printed for the reader only (the workload-specific names).
  std::vector<Metric> extra;
  std::vector<std::string> errors;
};

const std::vector<std::string>& WorkloadNames();
Outcome RunWorkload(const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
