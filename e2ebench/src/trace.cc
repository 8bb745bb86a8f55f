#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace e2ebench {

namespace {
thread_local uint64_t current_span = 0;
std::atomic<uint32_t> next_thread{0};
}  // namespace

uint32_t ThreadIndex() {
  thread_local const uint32_t index = next_thread.fetch_add(1);
  return index;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kParse: return "query.parse";
    case SpanKind::kCompile: return "query.compile";
    case SpanKind::kPlan: return "optimizer.plan";
    case SpanKind::kEstimate: return "cardest.estimate";
    case SpanKind::kRecost: return "optimizer.recost";
    case SpanKind::kExecute: return "exec.execute";
    case SpanKind::kApplyBatch: return "datagen.apply_batch";
    case SpanKind::kRefresh: return "service.refresh";
    case SpanKind::kUpdate: return "cardest.update";
    case SpanKind::kPhase: return "serve.phase";
    case SpanKind::kRequest: return "server.request";
    case SpanKind::kCheck: return "bench.check";
  }
  return "unknown";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "id\tparent\tname\ttag\tcount\tthread\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(out, "%llu\t%llu\t%s\t%u\t%llu\t%u\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 SpanKindName(s.kind), static_cast<unsigned>(s.tag),
                 static_cast<unsigned long long>(s.count),
                 static_cast<unsigned>(s.thread),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

Scope::Scope(SpanKind kind, uint16_t tag) : Scope(kind, tag, current_span) {}

Scope::Scope(SpanKind kind, uint16_t tag, uint64_t parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.id = tracer.NextId();
  span_.parent = parent;
  span_.kind = kind;
  span_.tag = tag;
  span_.thread = ThreadIndex();
  saved_current_ = current_span;
  current_span = span_.id;
  span_.start_ns = NowNs();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  current_span = saved_current_;
  Tracer::Get().Record(span_);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t run_start = 0, run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > run_end) {
      if (open) total += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) total += run_end - run_start;
  return total;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = s.parent == 0 ? index_of.end() : index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    // Clip to the parent: a child on another thread may outlive it.
    const int64_t start = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    children[it->second].emplace_back(start, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              UnionLength(std::move(children[i]));
  }
  return self;
}

int64_t Residual(const std::vector<Span>& spans, uint32_t thread,
                 int64_t start_ns, int64_t wall_ns) {
  int64_t covered = 0;
  for (const Span& s : spans) {
    if (s.parent != 0 || s.thread != thread) continue;
    if (s.start_ns < start_ns || s.start_ns >= start_ns + wall_ns) continue;
    covered += s.end_ns - s.start_ns;
  }
  return wall_ns - covered;
}

}  // namespace e2ebench
