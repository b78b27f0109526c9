#include "src/service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "src/io/text_io.hpp"
#include "src/report/journal.hpp"
#include "src/search/algorithms.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"

namespace automap {

namespace fs = std::filesystem;

/// Everything a submit request carries, decoded once and shared by the
/// submit handler, the job runner and store recovery.
struct SubmitSpec {
  std::string machine_text;
  std::string graph_text;
  std::string algorithm = "ccd";
  SearchOptions options;
  SimOptions sim;
  int priority = 0;
  bool want_journal = false;
  bool reuse_measurements = false;
  /// Deadline for the job (0 = none), in milliseconds from enqueue on the
  /// service clock. Deliberately OUTSIDE the fingerprint — like
  /// `priority`, it decides how a job runs, not what it computes, so a
  /// resubmission with a different deadline still maps onto the existing
  /// job (and resumes its checkpoint byte-identically).
  double deadline_ms = 0;
  /// Canonical re-encodings — the fingerprint inputs, so two requests
  /// spelling the same configuration differently still collide.
  std::string options_json;
  std::string sim_json;
  std::uint64_t fingerprint = 0;
};

namespace {

/// Largest accepted per-submit deadline (~366 days in milliseconds).
constexpr double kMaxDeadlineMs = 31622400000.0;

/// Moves the text field `key` out of a decoded submit.
std::string take_text(JsonValue& request, const std::string& key) {
  JsonValue* text = request.find(key);
  if (text == nullptr || text->kind != JsonValue::Kind::kString)
    throw Error("submit needs a '" + key + "' text field");
  return std::move(text->string);
}

SubmitSpec parse_submit(JsonValue&& request) {
  SubmitSpec spec;
  spec.machine_text = take_text(request, "machine");
  spec.graph_text = take_text(request, "graph");
  if (const JsonValue* v = request.find("algorithm"))
    spec.algorithm = json_str(*v, "algorithm");
  if (const JsonValue* options = request.find("options"))
    spec.options = search_options_from_json(*options);
  if (const JsonValue* sim = request.find("sim"))
    spec.sim = sim_options_from_json(*sim);
  if (const JsonValue* v = request.find("priority"))
    spec.priority = json_int(*v, "priority");
  if (const JsonValue* v = request.find("journal"))
    spec.want_journal = json_bool(*v, "journal");
  if (const JsonValue* v = request.find("reuse_measurements"))
    spec.reuse_measurements = json_bool(*v, "reuse_measurements");
  // The upper bound keeps the deadline arithmetic on the service clock
  // well-defined for any wire-supplied double (1e300 is valid JSON). ~A
  // year is far beyond any real deadline.
  if (const JsonValue* v = request.find("deadline_ms"))
    spec.deadline_ms = json_number(*v, "deadline_ms", 0, kMaxDeadlineMs);

  spec.options_json = search_options_to_json(spec.options);
  spec.sim_json = sim_options_to_json(spec.sim);
  // An in-memory key that recovery recomputes from each stored request,
  // so it may change between builds: each text hashes a word at a time,
  // and chaining the hashes keeps ("ab", "c") apart from ("a", "bc").
  std::uint64_t fp = 0;
  for (const std::string* text : {&spec.machine_text, &spec.graph_text,
                                  &spec.algorithm, &spec.options_json,
                                  &spec.sim_json})
    fp = mix64(fp ^ std::hash<std::string_view>{}(*text));
  spec.fingerprint = mix64(fp ^ (spec.want_journal ? 1 : 0) ^
                           (spec.reuse_measurements ? 2 : 0));
  return spec;
}

/// The evaluation-cache bucket key: which measurements are reusable
/// across jobs. Everything that decides an individual candidate's
/// recorded mean participates; rotation counts / budgets / top_k do not
/// (they decide which candidates get proposed, not what a measurement of
/// one is worth).
std::uint64_t bucket_key(const SubmitSpec& spec) {
  std::uint64_t key = hash_text(spec.machine_text);
  key = hash_text(spec.graph_text, key);
  key = hash_text(spec.sim_json, key);
  std::string measure = std::to_string(spec.options.seed);
  measure += "/" + std::to_string(spec.options.repeats);
  measure += spec.options.objective == Objective::kEnergy ? "/energy"
                                                          : "/time";
  measure += spec.options.memory_fallbacks ? "/fb" : "";
  measure += "/" + std::to_string(spec.options.resilience.max_retries);
  measure += "/" +
             std::to_string(spec.options.resilience.quarantine_after);
  measure += "/" + json_double(spec.options.resilience.retry_backoff_s);
  measure += "/" + std::to_string(static_cast<int>(
                       spec.options.resilience.aggregation));
  return hash_text(measure, key);
}

/// A writer holding `{"type":<type>`, the start of every answer.
JsonWriter answer(std::string_view type) {
  JsonWriter out;
  out.begin_object().str("type", type);
  return out;
}

std::optional<std::string> read_if_exists(const std::string& path) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return std::nullopt;
  return load_text(path);
}

std::uint64_t require_job_field(const JsonValue& request) {
  const JsonValue* job = request.find("job");
  if (job == nullptr || job->kind != JsonValue::Kind::kNumber)
    throw Error("request needs a numeric 'job' field");
  return json_u64(*job, "job");
}

/// A request naming a job the service does not hold; dispatch answers it
/// with the `not_found` error.
class NotFound : public Error {
 public:
  using Error::Error;
};

/// Bytes of regular files under `dir` (0 when absent) — the store's
/// byte-budget accounting unit.
std::size_t dir_bytes(const std::string& dir) {
  std::size_t total = 0;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec);
  const fs::recursive_directory_iterator end;
  while (!ec && it != end) {
    std::error_code fec;
    if (it->is_regular_file(fec) && !fec) {
      const auto size = it->file_size(fec);
      if (!fec) total += static_cast<std::size_t>(size);
    }
    it.increment(ec);
  }
  return total;
}

/// The tombstone: a one-line `jobs/<id>/cancelled` file naming how a job
/// ended when that is not a result. "keep <reason>" marks a cancelled job
/// (reason "client" or "deadline") and "failed <message>" a failed one;
/// both keep the dir, checkpoint included, for a later resubmit-and-resume.
/// "purge" is written *before* an eviction deletes the dir, so a crash
/// mid-delete cannot revive a half-deleted job on restart.
constexpr const char* kTombstoneName = "cancelled";

void write_tombstone(const std::string& dir, const std::string& state) {
  try {
    // Durable but trailer-less: tombstones are a one-line sentinel whose
    // presence is the signal, so recovery reads them as plain text.
    save_durable(dir + "/" + kTombstoneName, state + "\n", "tombstone");
  } catch (const std::exception&) {
    // Best effort: a missing tombstone only costs a spurious re-run after
    // a crash, never corruption.
  }
}

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The fixed op label set for the per-op latency histograms and error
/// counters. Unrecognized ops (and unparseable requests) land under
/// "other" so client-controlled strings can never mint new label values.
constexpr const char* kOpLabels[] = {"ping",   "submit", "status",
                                     "result", "journal", "cancel",
                                     "trace",  "jobs",   "stats",
                                     "shutdown", "other"};

}  // namespace

MappingService::MappingService(const ServiceConfig& config)
    : config_(config),
      clock_ms_(config.clock_ms ? config.clock_ms
                                : std::function<double()>(&steady_ms)),
      start_ms_(clock_ms_()),
      recorder_(clock_ms_) {
  AM_REQUIRE(!config_.store_dir.empty(), "service store directory is empty");
  if (config_.job_workers < 0)
    throw Error("job workers must be >= 0 (serve --workers), got " +
                std::to_string(config_.job_workers));
  fs::create_directories(fs::path(config_.store_dir) / "jobs");
  fs::create_directories(fs::path(config_.store_dir) / "cache");
  // The existing up-front writability probe, applied to the store before
  // the daemon accepts anything — a read-only volume fails here with one
  // Error line instead of on the first completed job.
  require_writable_path(
      (fs::path(config_.store_dir) / ".writable-probe").string());

  m_submitted_ = metrics_.counter("automap_service_jobs_submitted_total",
                                  "Jobs accepted by submit", false);
  m_completed_ = metrics_.counter("automap_service_jobs_completed_total",
                                  "Jobs finished successfully", false);
  m_failed_ = metrics_.counter("automap_service_jobs_failed_total",
                               "Jobs that ended in an error", false);
  m_cancelled_ = metrics_.counter("automap_service_jobs_cancelled_total",
                                  "Jobs cancelled (queued or running)",
                                  false);
  m_result_cache_hits_ =
      metrics_.counter("automap_service_result_cache_hits_total",
                       "Submissions answered from a completed job", false);
  m_result_cache_misses_ = metrics_.counter(
      "automap_service_result_cache_misses_total",
      "Submissions that had to compute (no completed job matched)", false);
  m_result_cache_evictions_ = metrics_.counter(
      "automap_service_result_cache_evictions_total",
      "Completed jobs evicted from the result cache", false);
  m_result_cache_entries_ =
      metrics_.gauge("automap_service_result_cache_entries",
                     "Completed jobs indexed by fingerprint", false);
  m_eval_cache_seeded_ =
      metrics_.counter("automap_service_eval_cache_seeded_total",
                       "Jobs seeded from an evaluation-cache bucket", false);
  m_eval_cache_misses_ = metrics_.counter(
      "automap_service_eval_cache_misses_total",
      "Measurement-reuse jobs that found no bucket to seed from", false);
  m_eval_cache_evictions_ =
      metrics_.counter("automap_service_eval_cache_evictions_total",
                       "Evaluation-cache buckets evicted", false);
  m_eval_cache_entries_ =
      metrics_.gauge("automap_service_eval_cache_entries",
                     "Evaluation-cache buckets on disk", false);
  m_store_bytes_ = metrics_.gauge(
      "automap_service_store_bytes",
      "Bytes under the job store (jobs/ and cache/)", false);
  m_sim_runs_ = metrics_.counter(
      "automap_sim_runs_total",
      "Simulator runs across all jobs (pruning on or off changes the "
      "count: bounded runs abort early)",
      false);
  m_overloaded_ = metrics_.counter(
      "automap_service_overloaded_total",
      "Submits refused by admission control (the queue cap)", false);
  m_deadline_expired_ = metrics_.counter(
      "automap_service_deadline_expired_total",
      "Jobs whose per-submit deadline_ms expired", false);
  m_quarantined_ = metrics_.counter(
      "automap_service_store_quarantined_total",
      "Torn or corrupt store artifacts renamed to *.corrupt", false);
  m_io_timeouts_ = metrics_.counter(
      "automap_service_io_timeouts_total",
      "Connections dropped for exceeding the per-frame I/O deadline",
      false);
  m_idle_reaped_ = metrics_.counter(
      "automap_service_idle_reaped_total",
      "Idle connections reaped by the server", false);
  m_uptime_ = metrics_.gauge("automap_service_uptime_seconds",
                             "Seconds since the service was constructed",
                             false);
  // Job latencies span milliseconds (cache hits, tiny searches) to many
  // minutes (deep searches behind a backlog).
  const std::vector<double> job_buckets = {0.001, 0.01, 0.05, 0.25, 1,
                                           5,     30,   120,  600};
  m_queue_wait_ = metrics_.histogram(
      "automap_service_queue_wait_seconds",
      "Submit-to-running wait per job (the queued span)", job_buckets,
      false);
  m_job_duration_ = metrics_.histogram(
      "automap_service_job_duration_seconds",
      "Submit-to-terminal latency per job", job_buckets, false);
  // handle() never runs a search; its latencies are parse + persist.
  const std::vector<double> handle_buckets = {0.0005, 0.002, 0.01, 0.05,
                                              0.25,   1,     5};
  for (const char* op : kOpLabels) {
    const std::string label = std::string("{op=\"") + op + "\"}";
    op_metrics_[op] = {
        metrics_.histogram("automap_service_handle_seconds" + label,
                           "handle() latency per op", handle_buckets,
                           false),
        metrics_.counter("automap_service_op_errors_total" + label,
                         "Error responses per op", false)};
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    recover_store_locked();
    evict_locked();
  }

  for (int i = 0; i < config_.job_workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

MappingService::~MappingService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

const char* MappingService::status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

std::string MappingService::job_dir(std::uint64_t id) const {
  return (fs::path(config_.store_dir) / "jobs" / std::to_string(id))
      .string();
}

std::string MappingService::bucket_path(std::uint64_t bucket) const {
  return (fs::path(config_.store_dir) / "cache" /
          (hex_u64(bucket) + ".profiles"))
      .string();
}

bool MappingService::shutdown_requested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

std::string MappingService::expose_metrics() {
  const std::lock_guard<std::mutex> lock(mutex_);
  m_uptime_->set((clock_ms_() - start_ms_) / 1000.0);
  return metrics_.expose();
}

std::string MappingService::render_service_trace() const {
  return recorder_.chrome_trace();
}

void MappingService::note_io_timeout() { m_io_timeouts_->inc(); }

void MappingService::note_idle_reaped() { m_idle_reaped_->inc(); }

void MappingService::update_cache_gauges_locked() {
  m_result_cache_entries_->set(static_cast<double>(done_jobs_));
  m_eval_cache_entries_->set(static_cast<double>(buckets_.size()));
  m_store_bytes_->set(static_cast<double>(store_bytes_total_));
}

void MappingService::remeasure_locked(Job& job) {
  const std::size_t bytes = dir_bytes(job_dir(job.id));
  store_bytes_total_ -= std::min(job.store_bytes, store_bytes_total_);
  store_bytes_total_ += bytes;
  job.store_bytes = bytes;
}

void MappingService::touch_bucket_locked(std::uint64_t bucket) {
  Bucket& entry = buckets_[bucket];
  store_bytes_total_ -= std::min(entry.bytes, store_bytes_total_);
  std::error_code ec;
  const auto bytes = fs::file_size(bucket_path(bucket), ec);
  if (ec) {
    // Gone (quarantined, or never written): nothing left to account.
    buckets_.erase(bucket);
    return;
  }
  entry.bytes = static_cast<std::size_t>(bytes);
  entry.last_served = ++serve_tick_;
  store_bytes_total_ += entry.bytes;
}

MappingService::Job& MappingService::add_job_locked(
    std::uint64_t id, std::shared_ptr<const SubmitSpec> spec) {
  Job& job = jobs_[id];
  job.id = id;
  job.spec = std::move(spec);
  std::uint64_t& indexed = by_fingerprint_[job.spec->fingerprint];
  indexed = std::max(indexed, id);
  next_id_ = std::max(next_id_, id + 1);
  return job;
}

MappingService::Job* MappingService::find_fingerprint_locked(
    std::uint64_t fingerprint) {
  const auto it = by_fingerprint_.find(fingerprint);
  return it == by_fingerprint_.end() ? nullptr : &jobs_.at(it->second);
}

std::string MappingService::submitted_answer_locked(Job& job) {
  const bool done = job.status == JobStatus::kDone;
  if (done) {
    job.last_served = ++serve_tick_;
    m_result_cache_hits_->inc();
  } else if (job.status != JobStatus::kQueued &&
             job.status != JobStatus::kRunning) {
    return {};
  }
  JsonWriter out = answer("submitted");
  out.integer("job", job.id).str("status", status_name(job.status));
  return out.boolean("cached", done).end_object().take();
}

void MappingService::enqueue_locked(Job& job, std::vector<SpanAttr> attrs) {
  std::error_code ec;
  fs::remove(job_dir(job.id) + "/" + kTombstoneName, ec);
  job.status = JobStatus::kQueued;
  job.cancel = std::make_shared<std::atomic<bool>>(false);
  job.cancel_reason.clear();
  job.error.clear();
  // Every enqueue opens a fresh window: a revival's (or a recovered
  // job's — the original instant died with the old process) deadline
  // counts from now.
  const SubmitSpec& spec = *job.spec;
  job.deadline_at_ms =
      spec.deadline_ms > 0 ? clock_ms_() + spec.deadline_ms : 0;
  queue_.emplace(-spec.priority, job.id);
  if (job.deadline_at_ms > 0) deadlines_.emplace(job.deadline_at_ms, job.id);
  remeasure_locked(job);
  attrs.push_back({"queue_depth", static_cast<double>(queue_.size())});
  recorder_.transition(job.id, "queued", -1, std::move(attrs));
  work_cv_.notify_one();
}

void MappingService::dequeue_locked(const Job& job) {
  queue_.erase({-job.spec->priority, job.id});
  deadlines_.erase({job.deadline_at_ms, job.id});
}

void MappingService::expire_overdue_locked() {
  if (deadlines_.empty()) return;
  const double now = clock_ms_();
  while (!deadlines_.empty() && deadlines_.begin()->first <= now)
    cancel_locked(jobs_.at(deadlines_.begin()->second), "deadline");
}

void MappingService::cancel_locked(Job& job, const char* reason) {
  if (job.cancel_reason.empty()) job.cancel_reason = reason;
  if (job.status == JobStatus::kRunning) {
    // Cooperative: the search's cancel predicate fires at its next task
    // boundary and run_job settles the job, last checkpoint on disk.
    job.cancel->store(true);
    return;
  }
  dequeue_locked(job);
  settle_locked(job, JobStatus::kCancelled, {});
}

void MappingService::settle_locked(Job& job, JobStatus status,
                                   std::string detail) {
  const std::string dir = job_dir(job.id);
  // Terminal span: how the job ended, finer-grained than JobStatus —
  // cancellation splits into client "cancelled" vs deadline "expired".
  const char* span = "finished";
  job.status = status;
  if (status == JobStatus::kDone) {
    job.result_json = std::move(detail);
    ++done_jobs_;
    m_completed_->inc();
  } else if (status == JobStatus::kFailed) {
    job.error = std::move(detail);
    write_tombstone(dir, "failed " + job.error);
    span = "failed";
    m_failed_->inc();
  } else {
    write_tombstone(dir, "keep " + job.cancel_reason);
    m_cancelled_->inc();
    if (job.cancel_reason == "deadline") {
      span = "expired";
      m_deadline_expired_->inc();
      recorder_.service_event("deadline_expired",
                              {{"job", static_cast<double>(job.id)}});
    } else {
      span = "cancelled";
    }
  }
  job.last_served = ++serve_tick_;
  const double age_ms = recorder_.terminal(
      job.id, span, {{"store_bytes", static_cast<double>(dir_bytes(dir))}});
  m_job_duration_->observe(age_ms / 1000.0);
  // Persist the sealed timeline next to the job's other artifacts so a
  // restarted daemon still answers `trace`. Best-effort: observability
  // must never fail a job.
  try {
    save_checksummed(dir + "/spans.json", recorder_.serialize(job.id),
                     "spans");
  } catch (const std::exception&) {
  }
  remeasure_locked(job);
  evict_locked();  // last: it may evict this very job
}

void MappingService::evict_locked() {
  while (config_.max_store_bytes > 0 &&
         store_bytes_total_ > config_.max_store_bytes) {
    // The least-recently-served finished job or bucket; queued and
    // running jobs are never evicted.
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    Job* job = nullptr;
    for (auto& [id, candidate] : jobs_) {
      if (candidate.status == JobStatus::kQueued ||
          candidate.status == JobStatus::kRunning ||
          candidate.last_served >= oldest)
        continue;
      job = &candidate;
      oldest = candidate.last_served;
    }
    auto bucket = buckets_.end();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (it->second.last_served >= oldest) continue;
      bucket = it;
      oldest = it->second.last_served;
    }
    if (bucket != buckets_.end()) {
      std::error_code ec;
      fs::remove(bucket_path(bucket->first), ec);
      store_bytes_total_ -= std::min(bucket->second.bytes, store_bytes_total_);
      buckets_.erase(bucket);
      m_eval_cache_evictions_->inc();
      continue;
    }
    if (job == nullptr) break;  // only active jobs left: cannot evict
    const std::uint64_t id = job->id;
    const std::string dir = job_dir(id);
    // Tombstone before deleting: a crash mid-removal leaves a dir that
    // restart scanning recognizes and finishes cleaning, instead of a
    // partial job it would try to revive.
    write_tombstone(dir, "purge");
    std::error_code ec;
    fs::remove_all(dir, ec);
    store_bytes_total_ -= std::min(job->store_bytes, store_bytes_total_);
    if (job->status == JobStatus::kDone) {
      --done_jobs_;
      m_result_cache_evictions_->inc();
    }
    if (const auto it = by_fingerprint_.find(job->spec->fingerprint);
        it != by_fingerprint_.end() && it->second == id)
      by_fingerprint_.erase(it);
    // Post-terminal marker; the recorder keeps the timeline (bounded
    // separately), so `trace` still answers for a just-evicted job.
    recorder_.instant(id, "evicted");
    recorder_.service_event("evicted", {{"job", static_cast<double>(id)}});
    jobs_.erase(id);
  }
  update_cache_gauges_locked();
}

std::string MappingService::admission_error_locked() {
  const std::size_t queued = queue_.size();
  if (config_.max_queued_jobs == 0 || queued < config_.max_queued_jobs)
    return {};
  m_overloaded_->inc();
  recorder_.service_event("admission_rejected",
                          {{"queued", static_cast<double>(queued)}});
  // Deterministic hint scaled to backlog depth; retrying clients honor it
  // as their minimum wait, so a deeper queue spreads retries out further.
  const std::size_t retry_after_ms =
      std::min<std::size_t>(5000, 100 * (queued + 1));
  return wire_error("overloaded",
                    "queue full (" + std::to_string(queued) + "/" +
                        std::to_string(config_.max_queued_jobs) +
                        " queued jobs)",
                    retry_after_ms);
}

bool MappingService::quarantine_path(const std::string& path) {
  std::error_code ec;
  std::string target = path + ".corrupt";
  for (int n = 1; fs::exists(target, ec); ++n)
    target = path + ".corrupt." + std::to_string(n);
  fs::rename(path, target, ec);
  if (ec) return false;
  m_quarantined_->inc();
  recorder_.service_event("quarantined", {{"path", path}});
  return true;
}

std::string MappingService::handle(const std::string& request_json) {
  const double start = clock_ms_();
  std::string op_label = "other";
  std::string response = dispatch(request_json, op_label);
  const double elapsed_s = (clock_ms_() - start) / 1000.0;
  const bool is_error = response.rfind("{\"type\":\"error\"", 0) == 0;
  {
    // Histogram is not thread-safe and handle() runs on concurrent
    // connection threads, so observations land under mutex_ — after the
    // handler released it, never while holding it twice.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto& [histogram, errors] = op_metrics_.at(op_label);
    histogram->observe(elapsed_s);
    if (is_error) errors->inc();
  }
  return response;
}

std::string MappingService::dispatch(const std::string& request_json,
                                     std::string& op_label) {
  if (request_json.size() > kDefaultMaxFrameBytes)
    return wire_error("too_large",
                      "request of " + std::to_string(request_json.size()) +
                          " bytes exceeds the " +
                          std::to_string(kDefaultMaxFrameBytes) +
                          "-byte limit");
  try {
    JsonValue request = parse_json(request_json);
    if (request.kind != JsonValue::Kind::kObject)
      throw Error("request must be a JSON object");
    const std::string op = request.str_or("op", "");
    if (op_metrics_.count(op) != 0) op_label = op;
    if (op == "ping") {
      JsonWriter out = answer("pong");
      return out.integer("version", kWireVersion).end_object().take();
    }
    {
      // No op reads a job that should have expired by now.
      const std::lock_guard<std::mutex> lock(mutex_);
      expire_overdue_locked();
    }
    if (op == "submit")
      return handle_submit(std::move(request), request_json);
    if (op == "status") return handle_status(request);
    if (op == "result") return handle_result(request);
    if (op == "journal") return handle_journal(request);
    if (op == "cancel") return handle_cancel(request);
    if (op == "trace") return handle_trace(request);
    if (op == "jobs") return handle_jobs();
    if (op == "stats") {
      JsonWriter out = answer("stats");
      out.integer("version", kWireVersion).str("metrics", expose_metrics());
      const std::lock_guard<std::mutex> lock(mutex_);
      metrics_.quantiles_json(out.key("quantiles"));
      return out.end_object().take();
    }
    if (op == "shutdown") {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
      }
      return answer("shutdown").end_object().take();
    }
    return wire_error("unknown_op", "unknown op '" + op + "'");
  } catch (const NotFound& e) {
    return wire_error("not_found", e.what());
  } catch (const Error& e) {
    return wire_error("bad_request", e.what());
  } catch (const std::exception& e) {
    return wire_error("internal", e.what());
  }
}

std::string MappingService::handle_submit(JsonValue&& request,
                                          const std::string& request_json) {
  SubmitSpec spec = parse_submit(std::move(request));
  {
    // A request this process already validated is answered from its job
    // without parsing the machine and graph texts again.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (Job* job = find_fingerprint_locked(spec.fingerprint);
        job != nullptr && job->validated) {
      if (std::string answer = submitted_answer_locked(*job); !answer.empty())
        return answer;
    }
  }
  // Validate the full configuration before accepting, outside the mutex: a
  // malformed machine or graph, an unknown algorithm or options no search
  // can run with are a bad_request now, not a failed job (and a job dir)
  // later.
  (void)machine_from_string(spec.machine_text);
  validate_search_options(spec.options,
                          task_graph_from_string(spec.graph_text).num_tasks());
  validate_sim_options(spec.sim);
  if (find_search_algorithm(spec.algorithm) == nullptr)
    throw Error("unknown algorithm '" + spec.algorithm + "' (expected " +
                search_algorithm_names() + ")");

  const std::lock_guard<std::mutex> lock(mutex_);
  // One job per fingerprint: done jobs answer instantly with zero new
  // simulator runs; queued/running ones dedupe onto the in-flight search;
  // cancelled and failed ones re-enqueue and resume from whatever
  // checkpoint their last run left behind.
  Job* job = find_fingerprint_locked(spec.fingerprint);
  if (job != nullptr) {
    job->validated = true;
    if (std::string answer = submitted_answer_locked(*job); !answer.empty())
      return answer;
  }
  if (std::string overloaded = admission_error_locked(); !overloaded.empty())
    return overloaded;

  const bool fresh = job == nullptr;
  // Priority and deadline are the request's only fields outside the
  // fingerprint. A revival that changes either replaces the stored
  // request, so a restart re-applies what this client was told was
  // accepted; any other revival keeps the job's request and its bytes.
  const bool persist = fresh || job->spec->priority != spec.priority ||
                       job->spec->deadline_ms != spec.deadline_ms;
  auto accepted = std::make_shared<const SubmitSpec>(std::move(spec));
  std::vector<SpanAttr> attrs;
  if (fresh) {
    job = &add_job_locked(next_id_, accepted);
    job->validated = true;
    recorder_.transition(job->id, "submitted", -1,
                         {{"fingerprint", hex_u64(accepted->fingerprint)}});
  } else {
    // Reopens the sealed timeline: the revival rides the same spans as a
    // fresh submission, flagged so traces show the job came back.
    attrs.push_back({"revived", true});
  }
  const std::uint64_t id = job->id;
  if (persist) {
    // Durable before enqueue removes the tombstone: a crash in between
    // leaves the job in its terminal state.
    try {
      const std::string dir = job_dir(id);
      fs::create_directories(dir);
      save_checksummed(dir + "/request.json", request_json, "request");
    } catch (const std::exception&) {
      // A revived job stays as it was, a new one never existed.
      if (fresh) {
        by_fingerprint_.erase(accepted->fingerprint);
        jobs_.erase(id);
      }
      throw;
    }
    job->spec = std::move(accepted);  // a revival's priority or deadline
  }
  enqueue_locked(*job, std::move(attrs));
  m_submitted_->inc();
  m_result_cache_misses_->inc();
  evict_locked();  // never evicts the queued job
  return submitted_answer_locked(*job);
}

MappingService::Job& MappingService::requested_job_locked(
    const JsonValue& request) {
  const std::uint64_t id = require_job_field(request);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw NotFound("no job " + std::to_string(id));
  return it->second;
}

std::string MappingService::handle_status(const JsonValue& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Job& job = requested_job_locked(request);
  JsonWriter out = answer("status");
  out.integer("job", job.id).str("status", status_name(job.status));
  if (job.status == JobStatus::kCancelled && !job.cancel_reason.empty())
    out.str("reason", job.cancel_reason);
  if (!job.error.empty()) out.str("message", job.error);
  if (recorder_.has(job.id)) {
    out.str("span", recorder_.current_span(job.id)).key("spans");
    recorder_.spans_json(out, job.id);
  }
  return out.end_object().take();
}

std::string MappingService::handle_trace(const JsonValue& request) {
  const std::uint64_t id = require_job_field(request);
  bool known = recorder_.has(id);
  if (!known) {
    const std::lock_guard<std::mutex> lock(mutex_);
    known = jobs_.count(id) != 0;
  }
  // The recorder outlives eviction (its timeline map is bounded
  // separately from jobs_), so a just-evicted job still answers here.
  if (!known) throw NotFound("no job " + std::to_string(id));
  JsonWriter out = answer("trace");
  recorder_.timeline_json(out, id);
  return out.end_object().take();
}

std::string MappingService::handle_result(const JsonValue& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Job& job = requested_job_locked(request);
  if (job.status == JobStatus::kDone) {
    job.last_served = ++serve_tick_;
    return job.result_json;
  }
  const std::string name = "job " + std::to_string(job.id);
  if (job.status == JobStatus::kFailed)
    return wire_error("bad_state", name + " failed: " + job.error);
  return wire_error("bad_state", name + " is " + status_name(job.status));
}

std::string MappingService::handle_journal(const JsonValue& request) {
  const JsonValue* after_field = request.find("after");
  const long long after =
      after_field ? json_int(*after_field, "after", -1) : -1;
  std::uint64_t id = 0;
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Job& job = requested_job_locked(request);
    id = job.id;
    if (!job.spec->want_journal)
      return wire_error("bad_state",
                        "job " + std::to_string(id) +
                            " was submitted without \"journal\":true");
    path = job_dir(job.id) + "/journal.jsonl";
  }
  // Poll-based streaming: return the complete lines past the client's
  // cursor, each as one escaped string (the exact JSONL line bytes, so a
  // client can reconstruct the journal file verbatim). Event `n` equals
  // the line index, so the cursor is just a line count; a mid-write
  // partial tail line is withheld until complete.
  JsonWriter out = answer("journal");
  out.integer("job", id).begin_array("events");
  long long next = after;
  if (const std::optional<std::string> text = read_if_exists(path)) {
    long long n = 0;
    std::size_t start = 0;
    while (start < text->size()) {
      const std::size_t end = text->find('\n', start);
      if (end == std::string::npos) break;  // partial tail, not yet ours
      if (n > after) {
        out.str(std::string_view(*text).substr(start, end - start));
        next = n;
      }
      ++n;
      start = end + 1;
    }
  }
  return out.end_array().integer("next", next).end_object().take();
}

std::string MappingService::handle_cancel(const JsonValue& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Job& job = requested_job_locked(request);
  const std::string id_text = std::to_string(job.id);
  if (job.status != JobStatus::kQueued && job.status != JobStatus::kRunning)
    return wire_error("bad_state",
                      "only queued or running jobs can be cancelled; job " +
                          id_text + " is " + status_name(job.status));
  const bool running = job.status == JobStatus::kRunning;
  cancel_locked(job, "client");
  JsonWriter out = answer("cancelled");
  out.integer("job", job.id);
  out.str("status", running ? "cancelling" : "cancelled");
  return out.end_object().take();
}

std::string MappingService::handle_jobs() {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter out = answer("jobs");
  out.begin_array("jobs");
  for (const auto& [id, job] : jobs_) {
    out.begin_object().integer("job", id);
    out.str("status", status_name(job.status));
    out.str("algorithm", job.spec->algorithm);
    out.integer("priority", job.spec->priority);
    out.num("age_ms", recorder_.age_ms(id));
    out.num("queue_wait_ms", recorder_.queue_wait_ms(id));
    out.str("span", recorder_.current_span(id)).end_object();
  }
  return out.end_array().end_object().take();
}

bool MappingService::run_next(std::unique_lock<std::mutex> lock,
                              int worker) {
  expire_overdue_locked();  // no worker starts an overdue job
  if (queue_.empty()) return false;
  Job& job = jobs_.at(queue_.begin()->second);
  dequeue_locked(job);
  job.status = JobStatus::kRunning;
  const std::uint64_t id = job.id;
  lock.unlock();
  run_job(id, worker);
  return true;
}

void MappingService::worker_loop(int worker) {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    run_next(std::move(lock), worker);
  }
}

void MappingService::drain() {
  // drain() shares lane 0 with the first worker thread; the two never
  // run together outside tests, and lanes are cosmetic.
  while (run_next(std::unique_lock<std::mutex>(mutex_), 0)) {
  }
}

void MappingService::run_job(std::uint64_t id, int worker) {
  std::shared_ptr<const SubmitSpec> job_spec;
  std::function<bool()> cancelled;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Job& job = jobs_.at(id);
    job_spec = job.spec;
    // The client's token, or the deadline on the service clock. A job
    // without a deadline never reads the clock here.
    cancelled = [this, token = job.cancel, deadline = job.deadline_at_ms] {
      return token->load(std::memory_order_relaxed) ||
             (deadline > 0 && clock_ms_() >= deadline);
    };
    // Closing the "queued" span IS the queue-wait measurement.
    const double waited_ms = recorder_.transition(
        id, "admitted", worker,
        {{"queue_depth", static_cast<double>(queue_.size())}});
    m_queue_wait_->observe(waited_ms / 1000.0);
    recorder_.transition(id, "running", worker);
  }

  const std::string dir = job_dir(id);
  bool cut = false;
  std::optional<std::string> error;
  std::string payload;
  std::uint64_t bucket = 0;
  std::uint64_t sim_runs = 0;
  try {
    const SubmitSpec& spec = *job_spec;
    // The simulator keeps references; the job owns machine and graph for
    // the duration of the search.
    const MachineModel machine = machine_from_string(spec.machine_text);
    const TaskGraph graph = task_graph_from_string(spec.graph_text);
    const SearchAlgorithmInfo* algorithm =
        find_search_algorithm(spec.algorithm);
    AM_REQUIRE(algorithm != nullptr,
               "unknown algorithm '" + spec.algorithm + "'");

    SearchOptions options = spec.options;
    options.cancel = cancelled;
    options.checkpoint_path = dir + "/checkpoint";
    // Checkpoint markers land as zero-length instants on the running
    // span; the recorder has its own lock, so this is safe from the
    // search thread.
    options.on_checkpoint = [this, id](int rotation, int position) {
      recorder_.instant(id, "checkpointed",
                        {{"rotation", static_cast<double>(rotation)},
                         {"position", static_cast<double>(position)}});
    };
    std::optional<Journal> journal;
    if (spec.want_journal) journal.emplace(dir + "/journal.jsonl");
    MetricsRegistry job_metrics;
    options.journal = journal.has_value() ? &*journal : nullptr;
    options.metrics = &job_metrics;

    options.export_profiles_db = spec.reuse_measurements;
    if (spec.reuse_measurements) {
      bucket = bucket_key(spec);
      DurableLoad seeded = load_checksummed(bucket_path(bucket));
      // A torn bucket is a cache miss, never poison: quarantine it and
      // let this job rebuild the bucket from scratch.
      if (seeded.status == DurableLoad::Status::kCorrupt)
        quarantine_path(bucket_path(bucket));
      const std::lock_guard<std::mutex> lock(mutex_);
      if (seeded.status == DurableLoad::Status::kOk) {
        options.profiles_seed = std::move(seeded.payload);
        m_eval_cache_seeded_->inc();
      } else {
        m_eval_cache_misses_->inc();
      }
      touch_bucket_locked(bucket);
      update_cache_gauges_locked();
    }

    // Warm restart: a checkpoint left by an interrupted run resumes the
    // search to the byte-identical result. A torn checkpoint (bad checksum
    // trailer) is quarantined and the search starts fresh — same final
    // bytes, just more work — and so is one the search would refuse: an
    // older format, a log of another algorithm, or a log written under
    // another configuration (for example before the job's eval-cache
    // bucket changed).
    {
      DurableLoad checkpoint = load_checksummed(options.checkpoint_path);
      if (checkpoint.status == DurableLoad::Status::kOk) {
        try {
          if (read_checkpoint_log(checkpoint.payload, options, spec.sim)
                  .algorithm == algorithm->label)
            options.resume_state = std::move(checkpoint.payload);
          else
            checkpoint.status = DurableLoad::Status::kCorrupt;
        } catch (const Error&) {
          checkpoint.status = DurableLoad::Status::kCorrupt;
        }
      }
      if (checkpoint.status == DurableLoad::Status::kCorrupt)
        quarantine_path(options.checkpoint_path);
    }

    SimOptions sim_options = spec.sim;
    sim_options.metrics = &job_metrics;
    const Simulator sim(machine, graph, sim_options);
    const SearchResult result = algorithm->run(sim, options);
    sim_runs = job_metrics
                   .counter("automap_sim_runs_total",
                            "Simulator runs executed", false)
                   ->value();
    // Cancelled mid-run: the search cut at a task boundary and its last
    // task-boundary checkpoint is on disk; the partial result is
    // discarded, poisoning no cache.
    cut = cancelled();
    if (!cut) {
      // The response payload. `summary` is the CLI's summary line
      // verbatim and `mapping` the exact bytes `search -o` writes, so
      // daemon answers are byte-comparable to the one-shot path.
      // wall-clock time is excluded: responses must be byte-identical
      // across runs.
      const SearchStats& stats = result.stats;
      JsonWriter out = answer("result");
      out.integer("job", id).str("algorithm", result.algorithm);
      out.str("summary", render_search_summary(result));
      out.num("best", result.best_seconds);
      out.str("mapping", result.best.serialize());
      out.str("describe", result.best.describe(graph));
      out.begin_object("stats").integer("suggested", stats.suggested);
      out.integer("evaluated", stats.evaluated);
      out.integer("invalid", stats.invalid).integer("oom", stats.oom);
      out.integer("censored", stats.censored);
      out.integer("cache_hits", stats.cache_hits);
      out.integer("transient_failures", stats.transient_failures);
      out.integer("retries", stats.retries);
      out.integer("quarantined", stats.quarantined);
      out.boolean("degraded", stats.degraded);
      out.num("search_time_s", stats.search_time_s);
      out.num("evaluation_time_s", stats.evaluation_time_s);
      payload = out.end_object().end_object().take();

      save_checksummed(dir + "/result.json", payload, "result");
      // The export includes imported entries, so the fresh export IS the
      // union of the bucket and this job's new measurements.
      if (spec.reuse_measurements && !result.profiles_db.empty())
        save_checksummed(bucket_path(bucket), result.profiles_db, "bucket");
    }
  } catch (const std::exception& e) {
    // A cancel can surface as an exception (e.g. the cut left no
    // profilable finalist); the user asked for cancellation, so report
    // that, not a failure.
    cut = cancelled();
    if (!cut) error = e.what();
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  m_sim_runs_->inc(sim_runs);
  Job& job = jobs_.at(id);
  if (cut) {
    // The predicate fired without a client token: the deadline passed.
    if (job.cancel_reason.empty()) job.cancel_reason = "deadline";
    settle_locked(job, JobStatus::kCancelled, {});
  } else if (error.has_value()) {
    settle_locked(job, JobStatus::kFailed, std::move(*error));
  } else {
    if (bucket != 0) touch_bucket_locked(bucket);
    settle_locked(job, JobStatus::kDone, std::move(payload));
  }
}

void MappingService::recover_store_locked() {
  const fs::path jobs_root = fs::path(config_.store_dir) / "jobs";
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(jobs_root, ec)) {
    if (!entry.is_directory()) continue;
    std::uint64_t id = 0;
    try {
      std::size_t used = 0;
      const std::string name = entry.path().filename().string();
      id = std::stoull(name, &used);
      if (used != name.size() || id == 0) continue;
    } catch (const std::exception&) {
      continue;
    }
    // Tombstones first: "purge" marks an eviction that did not finish —
    // complete it and skip the dir. "keep <reason>" and "failed
    // <message>" mark a job that ended cancelled or failed; it recovers
    // as such below, checkpoint intact for a later resubmit-and-resume.
    std::optional<std::string> tombstone =
        read_if_exists((entry.path() / kTombstoneName).string());
    if (tombstone.has_value()) {
      if (!tombstone->empty() && tombstone->back() == '\n')
        tombstone->pop_back();
      if (tombstone->rfind("keep", 0) != 0 &&
          tombstone->rfind("failed", 0) != 0) {
        std::error_code rec;
        fs::remove_all(entry.path(), rec);
        continue;
      }
    }
    DurableLoad request =
        load_checksummed((entry.path() / "request.json").string());
    if (request.status == DurableLoad::Status::kMissing) continue;
    if (request.status == DurableLoad::Status::kCorrupt) {
      // A torn request means nothing else in the dir is attributable to a
      // known submission: quarantine the whole job dir. Startup proceeds;
      // the quarantined copy stays for inspection, outside the budget.
      quarantine_path(entry.path().string());
      continue;
    }
    std::shared_ptr<const SubmitSpec> spec;
    try {
      spec = std::make_shared<const SubmitSpec>(
          parse_submit(parse_json(request.payload)));
    } catch (const std::exception&) {
      // Checksum intact but not a valid submit (e.g. hand-edited):
      // quarantine rather than abort the daemon.
      quarantine_path(entry.path().string());
      continue;
    }
    Job& job = add_job_locked(id, std::move(spec));
    if (tombstone.has_value()) {
      // A bare "keep" (written by an older build) carries no reason.
      const std::size_t space = tombstone->find(' ');
      const std::string detail =
          space == std::string::npos ? "" : tombstone->substr(space + 1);
      if (tombstone->rfind("failed", 0) == 0) {
        job.status = JobStatus::kFailed;
        job.error = detail;
      } else {
        job.status = JobStatus::kCancelled;
        job.cancel_reason = detail;
      }
    } else {
      DurableLoad result =
          load_checksummed((entry.path() / "result.json").string());
      // Missing: interrupted before completing — re-enqueue below;
      // run_job resumes from the checkpoint the interrupted run left (if
      // any). Corrupt: quarantine just the torn result and recompute the
      // same way; the checkpoint makes the re-run byte-identical and
      // cheap.
      if (result.status == DurableLoad::Status::kOk) {
        job.status = JobStatus::kDone;
        job.result_json = std::move(result.payload);
        ++done_jobs_;
      } else if (result.status == DurableLoad::Status::kCorrupt) {
        quarantine_path((entry.path() / "result.json").string());
      }
    }
    // Restore the persisted span timeline; its timestamps shift so the
    // newest restored instant lands at now (a dead process's steady
    // epoch means nothing here, but the durations do). A torn or
    // hand-mangled spans file is quarantined and the job simply starts a
    // fresh timeline — spans are observability, never job truth.
    {
      const std::string spans_path = (entry.path() / "spans.json").string();
      DurableLoad spans = load_checksummed(spans_path);
      if (spans.status == DurableLoad::Status::kOk) {
        try {
          recorder_.restore(id, spans.payload);
        } catch (const std::exception&) {
          quarantine_path(spans_path);
        }
      } else if (spans.status == DurableLoad::Status::kCorrupt) {
        quarantine_path(spans_path);
      }
    }
    if (job.status == JobStatus::kQueued)
      enqueue_locked(job, {{"recovered", "true"}});
    else
      remeasure_locked(job);
  }
  // Deterministic LRU seed: recovered jobs rank oldest-first by id, then
  // the eval-cache buckets oldest-first by key, so eviction order after a
  // restart does not depend on directory iteration order.
  for (auto& [id, job] : jobs_) job.last_served = ++serve_tick_;
  std::set<std::uint64_t> buckets;
  std::error_code cec;
  for (const fs::directory_entry& entry : fs::directory_iterator(
           fs::path(config_.store_dir) / "cache", cec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    try {
      std::size_t used = 0;
      const std::uint64_t key =
          std::stoull(entry.path().stem().string(), &used, 16);
      // Only files our own bucket naming produced participate in the
      // budget; anything else in cache/ is left alone.
      if (hex_u64(key) + ".profiles" == name) buckets.insert(key);
    } catch (const std::exception&) {
      continue;
    }
  }
  for (const std::uint64_t key : buckets) touch_bucket_locked(key);
}

}  // namespace automap
