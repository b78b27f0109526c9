#include "src/service/flight_recorder.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "src/report/visualize.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {

namespace {

std::string attrs_json(const std::vector<SpanAttr>& attrs) {
  std::string out;
  for (const SpanAttr& attr : attrs) {
    if (!out.empty()) out += ",";
    out += "\"" + json_escape(attr.key) + "\":" + attr.value_json;
  }
  return out;
}

/// Re-renders a parsed attribute value for restore(). Only the scalar
/// kinds the recorder itself writes round-trip; anything else restores
/// as null rather than failing the whole timeline.
std::string attr_value_json(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return json_double(v.number);
    case JsonValue::Kind::kString:
      return "\"" + json_escape(v.string) + "\"";
    default:
      return "null";
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::function<double()> clock_ms)
    : clock_ms_(std::move(clock_ms)) {}

double FlightRecorder::now_at_least(double floor) const {
  return std::max(clock_ms_(), floor);
}

double FlightRecorder::newest_ms(const Timeline& timeline) const {
  double newest = 0;
  for (const Span& span : timeline.spans)
    newest = std::max(newest, std::max(span.start_ms, span.end_ms));
  return newest;
}

FlightRecorder::Timeline& FlightRecorder::timeline_locked(
    std::uint64_t job) {
  auto it = timelines_.find(job);
  if (it == timelines_.end()) {
    while (timelines_.size() >= kRecorderMaxJobs) {
      // Evict the least-recently-touched sealed timeline; only when every
      // timeline is still live does an active one go.
      timelines_.erase(std::min_element(
          timelines_.begin(), timelines_.end(),
          [](const auto& a, const auto& b) {
            return std::make_pair(!a.second.terminal, a.second.touched) <
                   std::make_pair(!b.second.terminal, b.second.touched);
          }));
    }
    it = timelines_.emplace(job, Timeline{}).first;
  }
  it->second.touched = ++touch_tick_;
  return it->second;
}

void FlightRecorder::append_locked(Timeline& timeline, Span span) {
  while (timeline.spans.size() >= kRecorderMaxSpansPerJob &&
         timeline.spans.size() > 1) {
    // Keep the first span — it anchors age_ms — and shed the oldest of
    // the rest (in practice checkpoint markers, the only unbounded part).
    timeline.spans.erase(timeline.spans.begin() + 1);
    ++timeline.dropped;
  }
  timeline.spans.push_back(std::move(span));
}

double FlightRecorder::record(std::uint64_t job, Step step,
                              const std::string& name, int worker,
                              std::vector<SpanAttr> attrs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Timeline& timeline = timeline_locked(job);
  const double now = now_at_least(newest_ms(timeline));
  Span span;
  span.name = name;
  span.start_ms = now;
  span.end_ms = step == Step::kTransition ? -1 : now;
  span.worker = worker;
  span.instant = step == Step::kInstant;
  span.attrs = std::move(attrs);
  // The open span is the newest that is neither an instant nor ended. A
  // marker or terminal lands in its worker lane; a transition or terminal
  // ends it now.
  double closed = 0;
  for (auto it = timeline.spans.rbegin(); it != timeline.spans.rend();
       ++it) {
    if (it->instant || it->end_ms >= 0) continue;
    if (step != Step::kTransition) span.worker = it->worker;
    if (step != Step::kInstant) {
      it->end_ms = now;
      closed = now - it->start_ms;
    }
    break;
  }
  // A transition on a sealed timeline revives it; a terminal seals it.
  if (step != Step::kInstant) timeline.terminal = step == Step::kTerminal;
  append_locked(timeline, std::move(span));
  return step == Step::kTerminal ? now - timeline.spans.front().start_ms
                                 : closed;
}

void FlightRecorder::service_event(const std::string& name,
                                   std::vector<SpanAttr> attrs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceEvent event;
  event.name = name;
  event.at_ms =
      now_at_least(events_.empty() ? 0.0 : events_.back().at_ms);
  event.attrs = std::move(attrs);
  events_.push_back(std::move(event));
  while (events_.size() > kRecorderMaxServiceEvents)
    events_.pop_front();
}

bool FlightRecorder::has(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return timelines_.count(job) != 0;
}

std::string FlightRecorder::current_span(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timelines_.find(job);
  if (it == timelines_.end() || it->second.spans.empty()) return {};
  return it->second.spans.back().name;
}

double FlightRecorder::end_or_now_ms(const Timeline& timeline) const {
  return timeline.terminal ? newest_ms(timeline)
                           : now_at_least(newest_ms(timeline));
}

double FlightRecorder::age_ms(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timelines_.find(job);
  if (it == timelines_.end() || it->second.spans.empty()) return 0;
  return end_or_now_ms(it->second) - it->second.spans.front().start_ms;
}

double FlightRecorder::queue_wait_ms(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timelines_.find(job);
  if (it == timelines_.end() || it->second.spans.empty()) return 0;
  const Timeline& timeline = it->second;
  const double start = timeline.spans.front().start_ms;
  for (const Span& span : timeline.spans)
    if (span.name == "running") return span.start_ms - start;
  // Never ran: the wait ended at the terminal instant, or is still
  // growing.
  return end_or_now_ms(timeline) - start;
}

std::string FlightRecorder::span_json(const Span& span) {
  std::string out = "{\"name\":\"" + json_escape(span.name) +
                    "\",\"start_ms\":" + json_double(span.start_ms) +
                    ",\"end_ms\":" +
                    (span.end_ms < 0 ? "null" : json_double(span.end_ms));
  if (span.worker >= 0) out += ",\"worker\":" + std::to_string(span.worker);
  if (span.instant) out += ",\"instant\":true";
  if (!span.attrs.empty())
    out += ",\"attrs\":{" + attrs_json(span.attrs) + "}";
  return out + "}";
}

std::string FlightRecorder::spans_array_json(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timelines_.find(job);
  std::string out = "[";
  if (it != timelines_.end()) {
    bool first = true;
    for (const Span& span : it->second.spans) {
      if (!first) out += ",";
      first = false;
      out += span_json(span);
    }
  }
  return out + "]";
}

std::string FlightRecorder::serialize(std::uint64_t job) const {
  std::string out = "{\"job\":" + std::to_string(job);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timelines_.find(job);
    const bool terminal =
        it != timelines_.end() && it->second.terminal;
    out += ",\"dropped\":" +
           std::to_string(it == timelines_.end() ? 0 : it->second.dropped);
    out += ",\"terminal\":";
    out += terminal ? "true" : "false";
  }
  return out + ",\"spans\":" + spans_array_json(job) + "}";
}

void FlightRecorder::restore(std::uint64_t job, const std::string& payload) {
  const JsonValue doc = parse_json(payload);
  AM_REQUIRE(doc.kind == JsonValue::Kind::kObject,
             "spans payload must be a JSON object");
  const JsonValue* spans = doc.find("spans");
  AM_REQUIRE(spans != nullptr && spans->kind == JsonValue::Kind::kArray,
             "spans payload needs a 'spans' array");

  Timeline timeline;
  timeline.dropped = json_u64_or(doc, "dropped", 0);
  timeline.terminal = doc.bool_or("terminal", false);
  double newest = -std::numeric_limits<double>::infinity();
  for (const JsonValue& entry : spans->array) {
    AM_REQUIRE(entry.kind == JsonValue::Kind::kObject,
               "spans entries must be objects");
    Span span;
    span.name = entry.str_or("name", "");
    AM_REQUIRE(!span.name.empty(), "span entry without a name");
    span.start_ms = entry.num_or("start_ms", 0);
    const JsonValue* end = entry.find("end_ms");
    span.end_ms = (end != nullptr && end->kind == JsonValue::Kind::kNumber)
                      ? end->number
                      : -1;
    span.worker = json_int_or(entry, "worker", -1, 0);
    span.instant = entry.bool_or("instant", false);
    if (const JsonValue* attrs = entry.find("attrs"))
      for (const auto& [key, value] : attrs->object)
        span.attrs.push_back({key, attr_value_json(value)});
    newest = std::max(newest, std::max(span.start_ms, span.end_ms));
    timeline.spans.push_back(std::move(span));
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  if (!timeline.spans.empty()) {
    // The persisted epoch belongs to a dead process (steady clocks restart
    // at boot): shift every timestamp so the newest restored instant lands
    // at now. Durations survive, and nothing this process records can
    // predate what it restored.
    const double shift = now_at_least(0) - newest;
    for (Span& span : timeline.spans) {
      span.start_ms += shift;
      if (span.end_ms >= 0) span.end_ms += shift;
    }
  }
  timeline.touched = ++touch_tick_;
  timelines_[job] = std::move(timeline);
}

std::string FlightRecorder::chrome_trace() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double origin = std::numeric_limits<double>::infinity();
  for (const ServiceEvent& event : events_)
    origin = std::min(origin, event.at_ms);
  for (const auto& [job, timeline] : timelines_)
    for (const Span& span : timeline.spans)
      origin = std::min(origin, span.start_ms);
  if (origin == std::numeric_limits<double>::infinity()) origin = 0;
  const double now = now_at_least(origin);

  ChromeTraceBuilder trace;
  trace.lane(0, "service");
  trace.lane(1, "queue");
  std::set<int> workers;
  for (const auto& [job, timeline] : timelines_)
    for (const Span& span : timeline.spans)
      if (span.worker >= 0) workers.insert(span.worker);
  for (const int worker : workers)
    trace.lane(2 + worker, "worker " + std::to_string(worker));

  for (const ServiceEvent& event : events_)
    trace.instant(0, event.name, (event.at_ms - origin) * 1e3,
                  attrs_json(event.attrs));
  for (const auto& [job, timeline] : timelines_) {
    for (const Span& span : timeline.spans) {
      const int tid = span.worker >= 0 ? 2 + span.worker : 1;
      std::string args = "\"job\":" + std::to_string(job);
      if (!span.attrs.empty()) args += "," + attrs_json(span.attrs);
      const std::string name =
          "j" + std::to_string(job) + " " + span.name;
      const double end =
          span.end_ms < 0 ? std::max(now, span.start_ms) : span.end_ms;
      if (span.instant || end <= span.start_ms)
        trace.instant(tid, name, (span.start_ms - origin) * 1e3, args);
      else
        trace.complete(tid, name, (span.start_ms - origin) * 1e3,
                       (end - span.start_ms) * 1e3, args);
    }
  }
  return trace.str();
}

}  // namespace automap
