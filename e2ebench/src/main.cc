// End-to-end benchmark of the cardbench pipeline. Runs one workload and
// ends its standard output with one JSON result line:
//
//   e2ebench --workload <stats-ceb-e2e|serve-refresh>
//            --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, taken from spans recorded around the calls
// the benchmark makes into each module. See e2ebench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "trace.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const auto& name : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseUnsigned(const std::string& text, unsigned long long* out) {
  if (text.empty() || text.size() > 19) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_ns = e2ebench::NowNs();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  cardbench::LogLevel() = 0;
  e2ebench::RunOptions options;
  options.start_ns = start_ns;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have[0] = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
      have[1] = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 3600) {
      options.seconds = static_cast<double>(number);
      have[2] = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have[3] = true;
    } else {
      Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) Usage("missing flags");
  bool known = false;
  for (const auto& name : e2ebench::WorkloadNames()) {
    known |= name == options.workload;
  }
  if (!known) Usage(("unknown workload " + options.workload).c_str());

  const e2ebench::Outcome outcome = e2ebench::RunWorkload(options);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& error : outcome.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  auto print = [](const char* group, const e2ebench::Metric& m) {
    std::printf("%-10s %-34s %18.6f %s\n", group, m.name.c_str(), m.value,
                m.unit.c_str());
  };
  for (const auto& m : outcome.end_to_end) print("e2e", m);
  for (const auto& m : outcome.extra) print("figure", m);
  for (const auto& m : outcome.per_layer) print("layer", m);
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? "true" : "false");

  const auto& metrics = options.trace ? outcome.per_layer : outcome.end_to_end;
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
