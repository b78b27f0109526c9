#pragma once

// FlightRecorder — the mapping daemon's per-job lifecycle timeline
// (§ISSUE 10).
//
// Every job the service touches carries a chain of named spans
// (`submitted → queued → admitted → running → … → finished`), each with a
// steady-clock start/end in milliseconds and a small set of JSON
// attributes (queue depth at admission, revival flag, store bytes
// written). The chain is gap-free by construction: a transition closes the
// open span at instant t and opens the next one at the same t, so the
// timeline answers "where did this job's time go" without reconstruction.
// Zero-length *instant* markers (checkpoints, post-terminal evictions)
// interleave without breaking the chain, and a terminal transition
// (`finished`, `failed`, `cancelled`, `expired`) seals the timeline — a
// later transition on a sealed timeline reopens it, which is exactly the
// service's cancelled-job revival path.
//
// Bounded by design: at most kRecorderMaxSpansPerJob spans per job (the
// oldest non-initial spans are dropped and counted — checkpoint markers
// are what grows, and the first span anchors the job's age), at most
// kRecorderMaxJobs timelines (least-recently-touched terminal timelines evict
// first), and a fixed ring of service-level events (admission rejections,
// deadline expiries, evictions, quarantines). The recorder has its own
// mutex and never calls back into the service, so any service path — with
// or without the service mutex held — may record safely.
//
// Timelines persist per job as `<jobdir>/spans.json` through the durable
// checksummed-write path (kind "spans") and restore across daemon
// restarts: restored timestamps are shifted so the newest one lands at
// "now", preserving every recorded duration while keeping the new
// process's clock monotone over the whole timeline.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace automap {

/// Timeline budget; adding one more evicts the least-recently-touched
/// terminal timeline (or the least-recently-touched overall when none is
/// terminal).
inline constexpr std::size_t kRecorderMaxJobs = 512;
/// Span budget per timeline; exceeding it drops the oldest span after the
/// first (the first anchors the job's age) and bumps dropped().
inline constexpr std::size_t kRecorderMaxSpansPerJob = 64;
/// Ring size for service-level events (admission rejections, deadline
/// expiries, evictions, quarantines).
inline constexpr std::size_t kRecorderMaxServiceEvents = 256;

/// One span attribute: `value_json` is spliced verbatim into JSON output,
/// so it must already be a valid JSON value ("3", "true", "\"client\"").
struct SpanAttr {
  std::string key;
  std::string value_json;
};

class FlightRecorder {
 public:
  /// `clock_ms` returns milliseconds on an arbitrary steady epoch. Empty =
  /// std::chrono::steady_clock; tests inject a fake for deterministic span
  /// timing.
  explicit FlightRecorder(std::function<double()> clock_ms);

  /// Closes the job's open span (if any) at now and opens `span` at the
  /// same instant — the gap-free chain step. Creates the timeline when the
  /// job is new; reopens a sealed timeline (the revival path). `worker`
  /// >= 0 tags the span with the job-worker lane that owns it. Returns
  /// the duration (ms) of the span it closed, 0 when none was open.
  double transition(std::uint64_t job, const std::string& span, int worker,
                    std::vector<SpanAttr> attrs = {});

  /// Zero-length marker at now; does not close the open span. Works on
  /// sealed timelines too (post-terminal events like "evicted").
  void instant(std::uint64_t job, const std::string& name,
               std::vector<SpanAttr> attrs = {});

  /// Closes the open span, appends the zero-length terminal span `name`
  /// and seals the timeline. Returns the job's end-to-end age in ms
  /// (terminal instant minus first span start).
  double terminal(std::uint64_t job, const std::string& name,
                  std::vector<SpanAttr> attrs = {});

  /// Service-level instant (no job timeline): admission rejections,
  /// deadline expiries, evictions, quarantines. Kept in a bounded ring.
  void service_event(const std::string& name,
                     std::vector<SpanAttr> attrs = {});

  [[nodiscard]] bool has(std::uint64_t job) const;
  /// Name of the newest span ("" for an unknown job).
  [[nodiscard]] std::string current_span(std::uint64_t job) const;
  /// Now (or the terminal instant, once sealed) minus the first span
  /// start; 0 for an unknown job.
  [[nodiscard]] double age_ms(std::uint64_t job) const;
  /// Time from the first span start until the job first reached
  /// "running" — still growing while it waits; 0 for an unknown job.
  [[nodiscard]] double queue_wait_ms(std::uint64_t job) const;
  /// Spans dropped to the per-job ring bound for this job.
  [[nodiscard]] std::uint64_t dropped_for(std::uint64_t job) const;

  /// The job's spans as a JSON array (oldest first); "[]" for an unknown
  /// job. Each element: {"name":...,"start_ms":...,"end_ms":<num|null>
  /// [,"worker":N][,"instant":true][,"attrs":{...}]}.
  [[nodiscard]] std::string spans_array_json(std::uint64_t job) const;

  /// The persisted spans.json payload:
  /// {"job":N,"dropped":D,"terminal":B,"spans":[...]}.
  [[nodiscard]] std::string serialize(std::uint64_t job) const;

  /// Rebuilds a timeline from a serialize() payload, shifting every
  /// timestamp so the newest one lands at now (durations survive, the
  /// restored past never outruns the new clock). Throws Error on
  /// malformed payloads — callers quarantine and start fresh.
  void restore(std::uint64_t job, const std::string& payload);

  /// Chrome tracing JSON of everything recorded: tid 0 = "service"
  /// (service events), tid 1 = "queue" (pre-running spans), tid 2+N =
  /// "worker N" (running spans). Zero-length spans render as instant
  /// events; timestamps are offset so the export starts at 0.
  [[nodiscard]] std::string chrome_trace() const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = -1;  // < 0 = still open
    int worker = -1;     // >= 0 = job-worker lane
    bool instant = false;
    std::vector<SpanAttr> attrs;
  };
  struct Timeline {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    bool terminal = false;
    std::uint64_t touched = 0;  // recorder-wide LRU tick
  };
  struct ServiceEvent {
    std::string name;
    double at_ms = 0;
    std::vector<SpanAttr> attrs;
  };

  /// Clock clamped to never run behind `floor` — keeps each timeline
  /// monotone even under a misbehaving injected clock.
  [[nodiscard]] double now_at_least(double floor) const;
  [[nodiscard]] double newest_ms(const Timeline& timeline) const;
  /// Fetches or creates the job's timeline, evicting per kRecorderMaxJobs.
  Timeline& timeline_locked(std::uint64_t job);
  void append_locked(Timeline& timeline, Span span);
  static std::string span_json(const Span& span);

  std::function<double()> clock_ms_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Timeline> timelines_;
  std::deque<ServiceEvent> events_;
  std::uint64_t touch_tick_ = 0;
};

}  // namespace automap
