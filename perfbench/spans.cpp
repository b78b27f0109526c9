#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "perfbench.hpp"
#include "src/report/visualize.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::uint64_t parent, std::int64_t op)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  span_.name = std::move(name);
  span_.id = recorder_.next_id_++;
  span_.parent = parent;
  span_.op = op;
  span_.start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (!recorder_.enabled_) return;
  span_.end_ns = now_ns();
  recorder_.add(std::move(span_));
}

void SpanRecorder::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  span.lane = lane_locked();
  spans_.push_back(std::move(span));
}

int SpanRecorder::lane_locked() {
  const std::size_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] =
      lanes_.emplace(thread, static_cast<int>(lanes_.size()));
  return it->second;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Span> SpanRecorder::named(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span);
  return out;
}

std::string SpanRecorder::chrome_trace() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  automap::ChromeTraceBuilder trace;
  for (const auto& [thread, lane] : lanes_)
    trace.lane(lane, "thread " + std::to_string(lane));
  std::int64_t origin = 0;
  for (const Span& span : spans_)
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  for (const Span& span : spans_) {
    trace.complete(span.lane, span.name, (span.start_ns - origin) * 1e-3,
                   (span.end_ns - span.start_ns) * 1e-3,
                   "\"id\":" + std::to_string(span.id) +
                       ",\"parent\":" + std::to_string(span.parent) +
                       ",\"op\":" + std::to_string(span.op) +
                       ",\"work\":" + std::to_string(span.work));
  }
  return trace.str();
}

double median_span(const SpanRecorder& spans, std::string_view name,
                   double scale) {
  std::vector<double> durations;
  for (const Span& span : spans.named(name))
    durations.push_back(span.seconds() * scale);
  return median(std::move(durations));
}

double ns_per_work(const SpanRecorder& spans, std::string_view name) {
  double seconds = 0.0;
  std::uint64_t work = 0;
  for (const Span& span : spans.named(name)) {
    seconds += span.seconds();
    work += span.work;
  }
  return work == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(work);
}

}  // namespace perfbench
