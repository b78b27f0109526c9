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

/// Writes `attrs` as members of the object open in `out`.
JsonWriter& attrs_json(JsonWriter& out, const std::vector<SpanAttr>& attrs) {
  for (const SpanAttr& attr : attrs) {
    out.key(attr.key);
    if (const auto* flag = std::get_if<bool>(&attr.value))
      out.boolean(*flag);
    else if (const auto* number = std::get_if<double>(&attr.value))
      out.num(*number);
    else if (const auto* text = std::get_if<std::string>(&attr.value))
      out.str(*text);
    else
      out.null();
  }
  return out;
}

/// A restored attribute's value. Only the scalar kinds the recorder itself
/// writes round-trip; anything else restores as null rather than failing
/// the whole timeline.
SpanAttr::Value restored_value(const JsonValue& v) {
  if (v.kind == JsonValue::Kind::kBool) return v.boolean;
  if (v.kind == JsonValue::Kind::kNumber) return v.number;
  if (v.kind == JsonValue::Kind::kString) return v.string;
  return {};
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
    // Keep the first span — it anchors age_ms — and shed the oldest
    // instant marker after it: markers (checkpoints) are what grows
    // without bound, and the lifecycle spans say when the job ran. Only a
    // timeline with no marker left sheds its oldest span after the first.
    const auto rest = timeline.spans.begin() + 1;
    const auto marker = std::find_if(
        rest, timeline.spans.end(), [](const Span& s) { return s.instant; });
    timeline.spans.erase(marker != timeline.spans.end() ? marker : rest);
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

void FlightRecorder::spans_json(JsonWriter& out, std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out.begin_array();
  if (const auto it = timelines_.find(job); it != timelines_.end()) {
    for (const Span& span : it->second.spans) {
      out.begin_object().str("name", span.name).num("start_ms", span.start_ms);
      if (span.end_ms < 0)
        out.key("end_ms").null();
      else
        out.num("end_ms", span.end_ms);
      if (span.worker >= 0) out.integer("worker", span.worker);
      if (span.instant) out.boolean("instant", true);
      if (!span.attrs.empty())
        attrs_json(out.begin_object("attrs"), span.attrs).end_object();
      out.end_object();
    }
  }
  out.end_array();
}

void FlightRecorder::timeline_json(JsonWriter& out, std::uint64_t job) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timelines_.find(job);
    const bool known = it != timelines_.end();
    out.integer("job", job).integer("dropped", known ? it->second.dropped : 0);
    out.boolean("terminal", known && it->second.terminal);
  }
  spans_json(out.key("spans"), job);
}

std::string FlightRecorder::serialize(std::uint64_t job) const {
  JsonWriter out;
  timeline_json(out.begin_object(), job);
  return out.end_object().take();
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
        span.attrs.push_back({key, restored_value(value)});
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
                  [&](JsonWriter& args) { attrs_json(args, event.attrs); });
  for (const auto& [job, timeline] : timelines_) {
    for (const Span& span : timeline.spans) {
      const int tid = span.worker >= 0 ? 2 + span.worker : 1;
      const auto args = [&, id = job](JsonWriter& out) {
        attrs_json(out.integer("job", id), span.attrs);
      };
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
