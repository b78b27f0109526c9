#include "src/service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "src/io/text_io.hpp"
#include "src/report/journal.hpp"
#include "src/search/algorithms.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {

namespace {

namespace fs = std::filesystem;

/// Everything a submit request carries, decoded once and shared by the
/// submit handler, the job runner and store recovery.
/// Largest accepted per-submit deadline (~366 days in milliseconds).
constexpr double kMaxDeadlineMs = 31622400000.0;

struct SubmitSpec {
  std::string machine_text;
  std::string graph_text;
  std::string algorithm = "ccd";
  SearchOptions options;
  SimOptions sim;
  int priority = 0;
  bool want_journal = false;
  bool reuse_measurements = false;
  /// Wall-clock deadline for the job (0 = none). Deliberately OUTSIDE the
  /// fingerprint — like `priority`, it decides how a job runs, not what
  /// it computes, so a resubmission with a different deadline still maps
  /// onto the existing job (and resumes its checkpoint byte-identically).
  double deadline_ms = 0;
  /// Canonical re-encodings — the fingerprint inputs, so two requests
  /// spelling the same configuration differently still collide.
  std::string options_json;
  std::string sim_json;
  std::uint64_t fingerprint = 0;
};

SubmitSpec parse_submit(const JsonValue& request) {
  SubmitSpec spec;
  const JsonValue* machine = request.find("machine");
  AM_REQUIRE(machine != nullptr &&
                 machine->kind == JsonValue::Kind::kString,
             "submit needs a 'machine' text field");
  spec.machine_text = machine->string;
  const JsonValue* graph = request.find("graph");
  AM_REQUIRE(graph != nullptr && graph->kind == JsonValue::Kind::kString,
             "submit needs a 'graph' text field");
  spec.graph_text = graph->string;
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
  // The upper bound keeps the later int64 cast and steady_clock addition
  // well-defined for any wire-supplied double (1e300 is valid JSON). ~A
  // year is far beyond any real deadline.
  if (const JsonValue* v = request.find("deadline_ms"))
    spec.deadline_ms = json_number(*v, "deadline_ms", 0, kMaxDeadlineMs);

  spec.options_json = search_options_to_json(spec.options);
  spec.sim_json = sim_options_to_json(spec.sim);
  std::uint64_t fp = hash_text(spec.machine_text);
  fp = hash_text(spec.graph_text, fp);
  fp = hash_text(spec.algorithm, fp);
  fp = hash_text(spec.options_json, fp);
  fp = hash_text(spec.sim_json, fp);
  fp = hash_text(spec.want_journal ? "journal" : "", fp);
  fp = hash_text(spec.reuse_measurements ? "reuse" : "", fp);
  spec.fingerprint = fp;
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

std::optional<std::string> read_if_exists(const std::string& path) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return std::nullopt;
  return load_text(path);
}

std::string require_job_field(const JsonValue& request) {
  const JsonValue* job = request.find("job");
  AM_REQUIRE(job != nullptr && job->kind == JsonValue::Kind::kNumber,
             "request needs a numeric 'job' field");
  return std::to_string(json_u64(*job, "job"));
}

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

/// The cancellation tombstone: written into a job dir *before* any
/// destructive step so a crash mid-delete cannot revive a corrupt job on
/// restart. "purge" marks a dir whose deletion is pending (restart
/// finishes the cleanup); "keep" marks a cancelled-while-running job whose
/// checkpoint is deliberately retained for a later resume.
constexpr const char* kTombstoneName = "cancelled";

void write_tombstone(const std::string& dir, const char* mode) {
  try {
    // Durable but trailer-less: tombstones are a one-word sentinel whose
    // presence is the signal, so recovery reads them as plain text.
    save_durable(dir + "/" + kTombstoneName, std::string(mode) + "\n",
                 "tombstone");
  } catch (const std::exception&) {
    // Best effort: a missing tombstone only costs a spurious re-run after
    // a crash, never corruption.
  }
}

/// Milliseconds cast for the deadline wheel (deadline_ms is validated
/// into [0, kMaxDeadlineMs] at parse time, so the cast is exact).
std::chrono::milliseconds deadline_delay(double deadline_ms) {
  return std::chrono::milliseconds(static_cast<std::int64_t>(deadline_ms));
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
      pool_(config.eval_threads == 0 ? ThreadPool::hardware_threads()
                                     : config.eval_threads),
      recorder_(config.clock_ms) {
  AM_REQUIRE(!config_.store_dir.empty(), "service store directory is empty");
  clock_ms_ = config_.clock_ms ? config_.clock_ms
                               : std::function<double()>(&steady_ms);
  start_ms_ = clock_ms_();
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
  m_store_bytes_ = metrics_.gauge("automap_service_store_bytes",
                                  "Bytes under the job store", false);
  m_sim_runs_ = metrics_.counter(
      "automap_sim_runs_total",
      "Simulator runs across all jobs (includes speculative pool work)",
      false);
  m_overloaded_ = metrics_.counter(
      "automap_service_overloaded_total",
      "Submits refused by admission control (queue/inflight caps)", false);
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

  // The wheel must exist before recover_store: recovered queued jobs with
  // a deadline re-arm a fresh window.
  wheel_ = std::make_unique<DeadlineWheel>(
      [this](std::uint64_t id) { on_deadline(id); });

  {
    // The wheel thread is already live and its expiry callback locks
    // mutex_, so recovery must hold it too: an expiry racing the rebuild
    // of jobs_ would otherwise be concurrent unordered_map access.
    const std::lock_guard<std::mutex> lock(mutex_);
    recover_store_locked();
    enforce_budgets_locked();
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
  // After the workers: an expiry callback may touch jobs_ until the last
  // worker settles, so the wheel outlives them and dies here.
  wheel_.reset();
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

std::string MappingService::latency_quantiles() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.quantiles_json();
}

std::string MappingService::render_service_trace() const {
  return recorder_.chrome_trace();
}

void MappingService::touch_locked(Job& job) {
  job.last_served = ++serve_tick_;
}

void MappingService::update_cache_gauges_locked() {
  m_result_cache_entries_->set(
      static_cast<double>(by_fingerprint_.size()));
  m_eval_cache_entries_->set(static_cast<double>(eval_buckets_.size()));
  m_store_bytes_->set(static_cast<double>(store_bytes_total_));
}

void MappingService::evict_job_locked(std::uint64_t id) {
  Job& job = jobs_.at(id);
  wheel_->disarm(id);
  const std::string dir = job_dir(id);
  // Tombstone before deleting: a crash mid-removal leaves a dir that
  // restart scanning recognizes and finishes cleaning, instead of a
  // partial job it would try to revive.
  write_tombstone(dir, "purge");
  std::error_code ec;
  fs::remove_all(dir, ec);
  store_bytes_total_ -= std::min(job.store_bytes, store_bytes_total_);
  if (const auto it = by_fingerprint_.find(job.fingerprint);
      it != by_fingerprint_.end() && it->second == id) {
    by_fingerprint_.erase(it);
    m_result_cache_evictions_->inc();
  }
  // Post-terminal marker; the recorder keeps the timeline (bounded
  // separately), so `trace` still answers for a just-evicted job.
  recorder_.instant(id, "evicted");
  recorder_.service_event("evicted", {{"job", std::to_string(id)}});
  jobs_.erase(id);
}

void MappingService::touch_bucket_locked(std::uint64_t bucket) {
  eval_buckets_[bucket] = ++serve_tick_;
}

void MappingService::enforce_budgets_locked() {
  // Result-cache entry budget: evict the least-recently-served completed
  // job (the whole job — an evicted fingerprint simply recomputes later).
  while (config_.max_result_cache > 0 &&
         by_fingerprint_.size() > config_.max_result_cache) {
    std::uint64_t victim = 0;
    std::uint64_t oldest = 0;
    for (const auto& [fp, id] : by_fingerprint_) {
      const Job& job = jobs_.at(id);
      if (victim == 0 || job.last_served < oldest) {
        victim = id;
        oldest = job.last_served;
      }
    }
    if (victim == 0) break;
    evict_job_locked(victim);
  }

  // Store byte budget: evict least-recently-served *finished* jobs
  // (done, failed or cancelled — never queued/running work) until the
  // accounted total fits.
  while (config_.max_store_bytes > 0 &&
         store_bytes_total_ > config_.max_store_bytes) {
    std::uint64_t victim = 0;
    std::uint64_t oldest = 0;
    for (const auto& [id, job] : jobs_) {
      if (job.status == JobStatus::kQueued ||
          job.status == JobStatus::kRunning)
        continue;
      if (victim == 0 || job.last_served < oldest) {
        victim = id;
        oldest = job.last_served;
      }
    }
    if (victim == 0) break;  // only active jobs left: cannot evict
    evict_job_locked(victim);
  }

  // Evaluation-cache entry budget, least-recently-served buckets first.
  while (config_.max_eval_cache > 0 &&
         eval_buckets_.size() > config_.max_eval_cache) {
    auto victim = eval_buckets_.begin();
    for (auto it = eval_buckets_.begin(); it != eval_buckets_.end(); ++it)
      if (it->second < victim->second) victim = it;
    std::error_code ec;
    fs::remove(bucket_path(victim->first), ec);
    eval_buckets_.erase(victim);
    m_eval_cache_evictions_->inc();
  }

  update_cache_gauges_locked();
}

void MappingService::note_io_timeout() { m_io_timeouts_->inc(); }

void MappingService::note_idle_reaped() { m_idle_reaped_->inc(); }

std::string MappingService::admission_error_locked() {
  std::size_t queued = 0;
  std::size_t running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.status == JobStatus::kQueued) ++queued;
    if (job.status == JobStatus::kRunning) ++running;
  }
  const std::size_t inflight = queued + running;
  const bool over_queued =
      config_.max_queued_jobs > 0 && queued >= config_.max_queued_jobs;
  const bool over_inflight =
      config_.max_inflight > 0 && inflight >= config_.max_inflight;
  if (!over_queued && !over_inflight) return {};
  m_overloaded_->inc();
  recorder_.service_event("admission_rejected",
                          {{"queued", std::to_string(queued)},
                           {"inflight", std::to_string(inflight)}});
  // Deterministic hint scaled to backlog depth; retrying clients honor it
  // as their minimum wait, so a deeper queue spreads retries out further.
  const std::size_t retry_after_ms =
      std::min<std::size_t>(5000, 100 * (inflight + 1));
  const std::string message =
      over_queued ? "queue full (" + std::to_string(queued) + "/" +
                        std::to_string(config_.max_queued_jobs) +
                        " queued jobs)"
                  : "at capacity (" + std::to_string(inflight) + "/" +
                        std::to_string(config_.max_inflight) +
                        " jobs in flight)";
  return wire_error("overloaded", message,
                    "\"retry_after_ms\":" + std::to_string(retry_after_ms));
}

void MappingService::on_deadline(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  if (job.status == JobStatus::kQueued) {
    // Expire in place: the dir (request + any checkpoint) is kept under a
    // "keep" tombstone, so resubmitting the identical request revives the
    // job and resumes to the byte-identical result.
    job.status = JobStatus::kCancelled;
    if (job.cancel_reason.empty()) job.cancel_reason = "deadline";
    write_tombstone(job_dir(id), "keep");
    const double age_ms = recorder_.terminal(id, "expired", {});
    m_job_duration_->observe(age_ms / 1000.0);
    recorder_.service_event("deadline_expired",
                            {{"job", std::to_string(id)}});
    try {
      save_checksummed(job_dir(id) + "/spans.json",
                       recorder_.serialize(id), "spans");
    } catch (const std::exception&) {
    }
    const std::size_t bytes = dir_bytes(job_dir(id));
    store_bytes_total_ += bytes;
    store_bytes_total_ -= std::min(job.store_bytes, store_bytes_total_);
    job.store_bytes = bytes;
    m_cancelled_->inc();
    m_deadline_expired_->inc();
    update_cache_gauges_locked();
  } else if (job.status == JobStatus::kRunning &&
             job.cancel_reason.empty()) {
    // Same cooperative path as a client cancel: the search observes the
    // token as a budget cut at the next task boundary and run_job settles
    // the job as cancelled with its checkpoint on disk. A non-empty
    // reason means a client cancel raced ahead of the wheel's disarm —
    // that cancellation already owns the job, so neither the token nor
    // the expiry metric is touched.
    job.cancel_reason = "deadline";
    job.cancel->store(true);
    m_deadline_expired_->inc();
    recorder_.service_event("deadline_expired",
                            {{"job", std::to_string(id)}});
  }
}

bool MappingService::quarantine_path(const std::string& path) {
  std::error_code ec;
  std::string target = path + ".corrupt";
  for (int n = 1; fs::exists(target, ec); ++n)
    target = path + ".corrupt." + std::to_string(n);
  fs::rename(path, target, ec);
  if (ec) return false;
  m_quarantined_->inc();
  recorder_.service_event(
      "quarantined", {{"path", "\"" + json_escape(path) + "\""}});
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
  if (request_json.size() > config_.max_request_bytes)
    return wire_error("too_large",
                      "request of " + std::to_string(request_json.size()) +
                          " bytes exceeds the " +
                          std::to_string(config_.max_request_bytes) +
                          "-byte limit");
  try {
    const JsonValue request = parse_json(request_json);
    AM_REQUIRE(request.kind == JsonValue::Kind::kObject,
               "request must be a JSON object");
    const std::string op = request.str_or("op", "");
    if (op_metrics_.count(op) != 0) op_label = op;
    if (op == "ping")
      return "{\"type\":\"pong\",\"version\":" +
             std::to_string(kWireVersion) + "}";
    if (op == "submit") return handle_submit(request, request_json);
    if (op == "status") return handle_status(request);
    if (op == "result") return handle_result(request);
    if (op == "journal") return handle_journal(request);
    if (op == "cancel") return handle_cancel(request);
    if (op == "trace") return handle_trace(request);
    if (op == "jobs") return handle_jobs();
    if (op == "stats")
      return "{\"type\":\"stats\",\"version\":" +
             std::to_string(kWireVersion) + ",\"metrics\":\"" +
             json_escape(expose_metrics()) + "\",\"quantiles\":" +
             latency_quantiles() + "}";
    if (op == "shutdown") {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
      }
      return "{\"type\":\"shutdown\"}";
    }
    return wire_error("unknown_op", "unknown op '" + op + "'");
  } catch (const Error& e) {
    return wire_error("bad_request", e.what());
  } catch (const std::exception& e) {
    return wire_error("internal", e.what());
  }
}

std::string MappingService::handle_submit(const JsonValue& request,
                                          const std::string& request_json) {
  const SubmitSpec spec = parse_submit(request);
  // Validate the full configuration before accepting: a malformed machine
  // or unknown algorithm is a bad_request now, not a failed job later.
  (void)machine_from_string(spec.machine_text);
  (void)task_graph_from_string(spec.graph_text);
  AM_REQUIRE(find_search_algorithm(spec.algorithm) != nullptr,
             "unknown algorithm '" + spec.algorithm + "' (expected " +
                 std::string(search_algorithm_names()) + ")");

  std::lock_guard<std::mutex> lock(mutex_);
  // Result cache: an identical request maps onto the existing job — done
  // jobs answer instantly with zero new simulator runs; queued/running
  // ones dedupe onto the in-flight search; a cancelled one re-enqueues
  // and resumes from whatever checkpoint its cancelled run left behind.
  for (auto& [id, job] : jobs_) {
    if (job.fingerprint != spec.fingerprint) continue;
    if (job.status == JobStatus::kFailed) continue;
    if (job.status == JobStatus::kCancelled) {
      if (std::string overloaded = admission_error_locked();
          !overloaded.empty())
        return overloaded;
      job.status = JobStatus::kQueued;
      job.cancel = std::make_shared<std::atomic<bool>>(false);
      job.error.clear();
      job.cancel_reason.clear();
      // The revival's deadline (if any) replaces the expired one — a
      // fresh window, armed below once the job is queued again. The new
      // request text also replaces the persisted one: after a crash,
      // recover_store_locked must re-arm the deadline this client was
      // told was accepted, not the stale one from the first submission.
      job.deadline_ms = spec.deadline_ms;
      job.priority = spec.priority;
      job.request_json = request_json;
      fs::create_directories(job_dir(id));
      std::error_code ec;
      fs::remove(job_dir(id) + "/" + kTombstoneName, ec);
      save_checksummed(job_dir(id) + "/request.json", job.request_json,
                       "request");
      const std::size_t bytes = dir_bytes(job_dir(id));
      store_bytes_total_ += bytes;
      store_bytes_total_ -= std::min(job.store_bytes, store_bytes_total_);
      job.store_bytes = bytes;
      m_result_cache_misses_->inc();
      m_submitted_->inc();
      update_cache_gauges_locked();
      std::size_t queued = 0;
      for (const auto& [jid, j] : jobs_)
        if (j.status == JobStatus::kQueued) ++queued;
      // Reopens the sealed timeline: the revival rides the same spans as
      // a fresh submission, flagged so traces show the job came back.
      recorder_.transition(id, "queued", -1,
                           {{"revived", "true"},
                            {"queue_depth", std::to_string(queued)}});
      if (job.deadline_ms > 0) wheel_->arm(id, deadline_delay(job.deadline_ms));
      work_cv_.notify_one();
      return "{\"type\":\"submitted\",\"job\":" + std::to_string(id) +
             ",\"status\":\"queued\",\"cached\":false}";
    }
    const bool done = job.status == JobStatus::kDone;
    if (done) {
      touch_locked(job);
      m_result_cache_hits_->inc();
    }
    return "{\"type\":\"submitted\",\"job\":" + std::to_string(id) +
           ",\"status\":\"" + status_name(job.status) +
           "\",\"cached\":" + (done ? "true" : "false") + "}";
  }

  if (std::string overloaded = admission_error_locked();
      !overloaded.empty())
    return overloaded;

  Job job;
  job.id = next_id_++;
  job.priority = spec.priority;
  job.request_json = request_json;
  job.fingerprint = spec.fingerprint;
  job.algorithm = spec.algorithm;
  job.want_journal = spec.want_journal;
  job.reuse_measurements = spec.reuse_measurements;
  job.deadline_ms = spec.deadline_ms;
  job.cancel = std::make_shared<std::atomic<bool>>(false);
  fs::create_directories(job_dir(job.id));
  save_checksummed(job_dir(job.id) + "/request.json", request_json,
                   "request");
  job.store_bytes = dir_bytes(job_dir(job.id));
  store_bytes_total_ += job.store_bytes;
  const std::uint64_t id = job.id;
  jobs_.emplace(id, std::move(job));
  m_submitted_->inc();
  m_result_cache_misses_->inc();
  enforce_budgets_locked();
  std::size_t queued = 0;
  for (const auto& [jid, j] : jobs_)
    if (j.status == JobStatus::kQueued) ++queued;
  recorder_.transition(
      id, "submitted", -1,
      {{"fingerprint", "\"" + hex_u64(spec.fingerprint) + "\""}});
  recorder_.transition(id, "queued", -1,
                       {{"queue_depth", std::to_string(queued)}});
  if (spec.deadline_ms > 0) wheel_->arm(id, deadline_delay(spec.deadline_ms));
  work_cv_.notify_one();
  return "{\"type\":\"submitted\",\"job\":" + std::to_string(id) +
         ",\"status\":\"queued\",\"cached\":false}";
}

std::string MappingService::handle_status(const JsonValue& request) {
  const std::string id_text = require_job_field(request);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(std::stoull(id_text));
  if (it == jobs_.end())
    return wire_error("not_found", "no job " + id_text);
  std::string out = "{\"type\":\"status\",\"job\":" + id_text +
                    ",\"status\":\"" + status_name(it->second.status) +
                    "\"";
  if (it->second.status == JobStatus::kCancelled &&
      !it->second.cancel_reason.empty())
    out += ",\"reason\":\"" + json_escape(it->second.cancel_reason) + "\"";
  if (!it->second.error.empty())
    out += ",\"message\":\"" + json_escape(it->second.error) + "\"";
  if (recorder_.has(it->first)) {
    out += ",\"span\":\"" +
           json_escape(recorder_.current_span(it->first)) + "\"";
    out += ",\"spans\":" + recorder_.spans_array_json(it->first);
  }
  return out + "}";
}

std::string MappingService::handle_trace(const JsonValue& request) {
  const std::string id_text = require_job_field(request);
  const std::uint64_t id = std::stoull(id_text);
  bool known = recorder_.has(id);
  if (!known) {
    const std::lock_guard<std::mutex> lock(mutex_);
    known = jobs_.count(id) != 0;
  }
  // The recorder outlives eviction (its timeline map is bounded
  // separately from jobs_), so a just-evicted job still answers here.
  if (!known) return wire_error("not_found", "no job " + id_text);
  // serialize() is {"job":N,"dropped":D,"terminal":B,"spans":[...]} —
  // splice the type on front.
  return "{\"type\":\"trace\"," + recorder_.serialize(id).substr(1);
}

std::string MappingService::handle_result(const JsonValue& request) {
  const std::string id_text = require_job_field(request);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(std::stoull(id_text));
  if (it == jobs_.end())
    return wire_error("not_found", "no job " + id_text);
  Job& job = it->second;
  if (job.status == JobStatus::kDone) {
    touch_locked(job);
    return job.result_json;
  }
  if (job.status == JobStatus::kFailed)
    return wire_error("bad_state", "job " + id_text + " failed: " +
                                       job.error);
  return wire_error("bad_state", "job " + id_text + " is " +
                                     status_name(job.status));
}

std::string MappingService::handle_journal(const JsonValue& request) {
  const std::string id_text = require_job_field(request);
  const JsonValue* after_field = request.find("after");
  const long long after =
      after_field ? json_int(*after_field, "after", -1) : -1;
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(std::stoull(id_text));
    if (it == jobs_.end())
      return wire_error("not_found", "no job " + id_text);
    if (!it->second.want_journal)
      return wire_error("bad_state",
                        "job " + id_text + " was submitted without "
                        "\"journal\":true");
    path = job_dir(it->second.id) + "/journal.jsonl";
  }
  // Poll-based streaming: return the complete lines past the client's
  // cursor, each as one escaped string (the exact JSONL line bytes, so a
  // client can reconstruct the journal file verbatim). Event `n` equals
  // the line index, so the cursor is just a line count; a mid-write
  // partial tail line is withheld until complete.
  std::string out = "{\"type\":\"journal\",\"job\":" + id_text +
                    ",\"events\":[";
  long long next = after;
  if (const std::optional<std::string> text = read_if_exists(path)) {
    long long n = 0;
    std::size_t start = 0;
    bool first = true;
    while (start < text->size()) {
      const std::size_t end = text->find('\n', start);
      if (end == std::string::npos) break;  // partial tail, not yet ours
      if (n > after) {
        if (!first) out += ",";
        first = false;
        out += "\"" + json_escape(text->substr(start, end - start)) + "\"";
        next = n;
      }
      ++n;
      start = end + 1;
    }
  }
  return out + "],\"next\":" + std::to_string(next) + "}";
}

std::string MappingService::handle_cancel(const JsonValue& request) {
  const std::string id_text = require_job_field(request);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(std::stoull(id_text));
  if (it == jobs_.end())
    return wire_error("not_found", "no job " + id_text);
  Job& job = it->second;
  if (job.status == JobStatus::kQueued) {
    job.status = JobStatus::kCancelled;
    if (job.cancel_reason.empty()) job.cancel_reason = "client";
    wheel_->disarm(job.id);
    m_cancelled_->inc();
    const double age_ms =
        recorder_.terminal(job.id, "cancelled", {{"queued", "true"}});
    m_job_duration_->observe(age_ms / 1000.0);
    // Tombstone, then delete: if remove_all fails partway, restart
    // scanning finds the tombstone and finishes the cleanup instead of
    // reviving a half-deleted job.
    const std::string dir = job_dir(job.id);
    write_tombstone(dir, "purge");
    std::error_code ec;
    fs::remove_all(dir, ec);
    const std::size_t remaining = fs::exists(dir, ec) ? dir_bytes(dir) : 0;
    store_bytes_total_ += remaining;
    store_bytes_total_ -=
        std::min(job.store_bytes, store_bytes_total_);
    job.store_bytes = remaining;
    update_cache_gauges_locked();
    return "{\"type\":\"cancelled\",\"job\":" + id_text +
           ",\"status\":\"cancelled\"}";
  }
  if (job.status == JobStatus::kRunning) {
    // Cooperative: the worker's search observes the token as a budget cut
    // at its next task boundary, then marks the job cancelled. The last
    // task-boundary checkpoint stays on disk for a later resume.
    if (job.cancel_reason.empty()) job.cancel_reason = "client";
    wheel_->disarm(job.id);
    job.cancel->store(true);
    return "{\"type\":\"cancelled\",\"job\":" + id_text +
           ",\"status\":\"cancelling\"}";
  }
  return wire_error("bad_state",
                    "only queued or running jobs can be cancelled; job " +
                        id_text + " is " + status_name(job.status));
}

std::string MappingService::handle_jobs() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"type\":\"jobs\",\"jobs\":[";
  bool first = true;
  for (const auto& [id, job] : jobs_) {
    if (!first) out += ",";
    first = false;
    out += "{\"job\":" + std::to_string(id) + ",\"status\":\"" +
           status_name(job.status) + "\",\"algorithm\":\"" +
           json_escape(job.algorithm) +
           "\",\"priority\":" + std::to_string(job.priority) +
           ",\"age_ms\":" + json_double(recorder_.age_ms(id)) +
           ",\"queue_wait_ms\":" +
           json_double(recorder_.queue_wait_ms(id)) + ",\"span\":\"" +
           json_escape(recorder_.current_span(id)) + "\"}";
  }
  return out + "]}";
}

std::uint64_t MappingService::claim_next_locked() {
  std::uint64_t best = 0;
  int best_priority = 0;
  for (auto& [id, job] : jobs_) {
    if (job.status != JobStatus::kQueued) continue;
    if (best == 0 || job.priority > best_priority) {
      best = id;  // map iteration is id-ascending: FIFO within a class
      best_priority = job.priority;
    }
  }
  if (best != 0) jobs_.at(best).status = JobStatus::kRunning;
  return best;
}

void MappingService::worker_loop(int worker) {
  for (;;) {
    std::uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        if (stopping_) return true;
        for (const auto& [jid, job] : jobs_)
          if (job.status == JobStatus::kQueued) return true;
        return false;
      });
      if (stopping_) return;
      id = claim_next_locked();
    }
    if (id != 0) run_job(id, worker);
  }
}

void MappingService::drain() {
  for (;;) {
    std::uint64_t id = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      id = claim_next_locked();
    }
    if (id == 0) return;
    // drain() shares lane 0 with the first worker thread; the two never
    // run together outside tests, and lanes are cosmetic.
    run_job(id, 0);
  }
}

void MappingService::run_job(std::uint64_t id, int worker) {
  std::string request_json;
  std::shared_ptr<std::atomic<bool>> cancel;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Job& job = jobs_.at(id);
    request_json = job.request_json;
    cancel = job.cancel;
    std::size_t queued = 0;
    for (const auto& [jid, j] : jobs_)
      if (j.status == JobStatus::kQueued) ++queued;
    // Closing the "queued" span IS the queue-wait measurement.
    const double waited_ms = recorder_.transition(
        id, "admitted", worker,
        {{"queue_depth", std::to_string(queued)}});
    m_queue_wait_->observe(waited_ms / 1000.0);
    recorder_.transition(id, "running", worker);
  }

  const std::string dir = job_dir(id);
  // Re-measures the job dir and lands the final status under the mutex;
  // shared by the done / cancelled / failed outcomes.
  const auto settle = [&](JobStatus status, const char* error,
                          std::string payload, bool index_result,
                          std::uint64_t bucket_written,
                          std::uint64_t sim_runs) {
    // Terminal span: how the job ended, finer-grained than JobStatus —
    // cancellation splits into client "cancelled" vs deadline "expired".
    const char* span_name = "finished";
    if (status == JobStatus::kFailed) span_name = "failed";
    if (status == JobStatus::kCancelled) {
      std::string reason;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        reason = jobs_.at(id).cancel_reason;
      }
      span_name = reason == "deadline" ? "expired" : "cancelled";
    }
    const double age_ms = recorder_.terminal(
        id, span_name,
        {{"store_bytes", std::to_string(dir_bytes(dir))}});
    // Persist the sealed timeline next to the job's other artifacts so a
    // restarted daemon still answers `trace`. Best-effort: observability
    // must never fail a job.
    try {
      std::error_code ec;
      if (fs::exists(dir, ec))
        save_checksummed(dir + "/spans.json", recorder_.serialize(id),
                         "spans");
    } catch (const std::exception&) {
    }
    const std::size_t bytes = dir_bytes(dir);
    const std::lock_guard<std::mutex> lock(mutex_);
    m_job_duration_->observe(age_ms / 1000.0);
    wheel_->disarm(id);
    Job& job = jobs_.at(id);
    job.status = status;
    if (error != nullptr) job.error = error;
    store_bytes_total_ += bytes;
    store_bytes_total_ -= std::min(job.store_bytes, store_bytes_total_);
    job.store_bytes = bytes;
    if (index_result) {
      job.result_json = std::move(payload);
      by_fingerprint_[job.fingerprint] = id;
      touch_locked(job);
      m_completed_->inc();
    }
    if (bucket_written != 0) touch_bucket_locked(bucket_written);
    m_sim_runs_->inc(sim_runs);
    enforce_budgets_locked();
  };

  try {
    const SubmitSpec spec = parse_submit(parse_json(request_json));
    // The simulator keeps references; the job owns machine and graph for
    // the duration of the search.
    const MachineModel machine = machine_from_string(spec.machine_text);
    const TaskGraph graph = task_graph_from_string(spec.graph_text);
    const SearchAlgorithmInfo* algorithm =
        find_search_algorithm(spec.algorithm);
    AM_REQUIRE(algorithm != nullptr,
               "unknown algorithm '" + spec.algorithm + "'");

    SearchOptions options = spec.options;
    options.shared_pool = &pool_;
    options.pool_priority = spec.priority;
    // Fair share: batches from different jobs at equal priority
    // interleave deficit-round-robin on the shared pool, keyed by job id.
    options.pool_stream = id;
    options.cancel = cancel.get();
    options.checkpoint_path = dir + "/checkpoint";
    // Checkpoint markers land as zero-length instants on the running
    // span; the recorder has its own lock, so this is safe from the
    // search thread.
    options.on_checkpoint = [this, id](int rotation, int position) {
      recorder_.instant(id, "checkpointed",
                        {{"rotation", std::to_string(rotation)},
                         {"position", std::to_string(position)}});
    };
    // Warm restart: a checkpoint left by an interrupted run resumes the
    // search; byte-identity of the final result is the PR 4 contract. A
    // torn checkpoint (bad checksum trailer) is quarantined and the
    // search starts fresh — same final bytes, just more work.
    {
      DurableLoad checkpoint = load_checksummed(options.checkpoint_path);
      if (checkpoint.status == DurableLoad::Status::kOk)
        options.resume_state = std::move(checkpoint.payload);
      else if (checkpoint.status == DurableLoad::Status::kCorrupt)
        quarantine_path(options.checkpoint_path);
    }

    std::optional<Journal> journal;
    if (spec.want_journal) journal.emplace(dir + "/journal.jsonl");
    MetricsRegistry job_metrics;
    options.journal = journal.has_value() ? &*journal : nullptr;
    options.metrics = &job_metrics;

    std::uint64_t bucket = 0;
    if (spec.reuse_measurements) {
      bucket = bucket_key(spec);
      options.export_profiles_db = true;
      DurableLoad seeded = load_checksummed(bucket_path(bucket));
      if (seeded.status == DurableLoad::Status::kOk) {
        options.profiles_seed = std::move(seeded.payload);
        const std::lock_guard<std::mutex> lock(mutex_);
        m_eval_cache_seeded_->inc();
        touch_bucket_locked(bucket);
        update_cache_gauges_locked();
      } else {
        // A torn bucket is a cache miss, never poison: quarantine it and
        // let this job rebuild the bucket from scratch.
        if (seeded.status == DurableLoad::Status::kCorrupt)
          quarantine_path(bucket_path(bucket));
        const std::lock_guard<std::mutex> lock(mutex_);
        m_eval_cache_misses_->inc();
      }
    } else {
      options.export_profiles_db = false;
    }

    SimOptions sim_options = spec.sim;
    sim_options.metrics = &job_metrics;
    const Simulator sim(machine, graph, sim_options);
    const SearchResult result = algorithm->run(sim, options);

    const Counter* sim_runs = job_metrics.counter(
        "automap_sim_runs_total", "Simulator runs executed", false);

    if (cancel->load()) {
      // Cancelled mid-run: the search cut at a task boundary and its last
      // task-boundary checkpoint is on disk. Keep the dir (tombstoned
      // "keep" so a restart recovers the job as cancelled instead of
      // re-running it) and poison nothing: no result payload, no
      // fingerprint index entry, no eval-cache bucket write.
      write_tombstone(dir, "keep");
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        m_cancelled_->inc();
      }
      settle(JobStatus::kCancelled, nullptr, {}, /*index_result=*/false,
             /*bucket_written=*/0, sim_runs->value());
      work_cv_.notify_all();
      return;
    }

    // The response payload. `summary` is the CLI's summary line verbatim
    // and `mapping` the exact bytes `search -o` writes, so daemon answers
    // are byte-comparable to the one-shot path. wall-clock time is
    // excluded: responses must be byte-identical across runs.
    const SearchStats& stats = result.stats;
    std::string payload = "{\"type\":\"result\",\"job\":" +
                          std::to_string(id) + ",\"algorithm\":\"" +
                          json_escape(result.algorithm) + "\"";
    payload += ",\"summary\":\"" +
               json_escape(render_search_summary(result)) + "\"";
    payload += ",\"best\":" + json_double(result.best_seconds);
    payload += ",\"mapping\":\"" + json_escape(result.best.serialize()) +
               "\"";
    payload += ",\"describe\":\"" +
               json_escape(result.best.describe(graph)) + "\"";
    payload += ",\"stats\":{";
    payload += "\"suggested\":" + std::to_string(stats.suggested);
    payload += ",\"evaluated\":" + std::to_string(stats.evaluated);
    payload += ",\"invalid\":" + std::to_string(stats.invalid);
    payload += ",\"oom\":" + std::to_string(stats.oom);
    payload += ",\"censored\":" + std::to_string(stats.censored);
    payload += ",\"cache_hits\":" + std::to_string(stats.cache_hits);
    payload += ",\"transient_failures\":" +
               std::to_string(stats.transient_failures);
    payload += ",\"retries\":" + std::to_string(stats.retries);
    payload += ",\"quarantined\":" + std::to_string(stats.quarantined);
    payload += ",\"degraded\":";
    payload += stats.degraded ? "true" : "false";
    payload += ",\"search_time_s\":" + json_double(stats.search_time_s);
    payload += ",\"evaluation_time_s\":" +
               json_double(stats.evaluation_time_s);
    payload += "}}";

    save_checksummed(dir + "/result.json", payload, "result");
    std::uint64_t bucket_written = 0;
    if (spec.reuse_measurements && !result.profiles_db.empty()) {
      // The export includes imported entries, so the fresh export IS the
      // union of the bucket and this job's new measurements.
      save_checksummed(bucket_path(bucket), result.profiles_db, "bucket");
      bucket_written = bucket;
    }

    settle(JobStatus::kDone, nullptr, std::move(payload),
           /*index_result=*/true, bucket_written, sim_runs->value());
  } catch (const std::exception& e) {
    if (cancel->load()) {
      // A cancel can surface as an exception (e.g. the cut left no
      // profilable finalist); the user asked for cancellation, so report
      // that, not a failure.
      write_tombstone(dir, "keep");
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        m_cancelled_->inc();
      }
      settle(JobStatus::kCancelled, nullptr, {}, /*index_result=*/false,
             /*bucket_written=*/0, /*sim_runs=*/0);
    } else {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        m_failed_->inc();
      }
      settle(JobStatus::kFailed, e.what(), {}, /*index_result=*/false,
             /*bucket_written=*/0, /*sim_runs=*/0);
    }
  }
  work_cv_.notify_all();
}

void MappingService::recover_store_locked() {
  const fs::path jobs_root = fs::path(config_.store_dir) / "jobs";
  // Deadlines are armed only after the recovery loop finishes: arming a
  // job before (or in the same statement as) its jobs_.emplace leaves a
  // window where the expiry finds no job and is dropped forever.
  std::vector<std::pair<std::uint64_t, std::chrono::milliseconds>> arms;
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
    // Tombstones first: a "purge" tombstone marks a deletion that did not
    // finish — complete it and skip the dir. A "keep" tombstone marks a
    // job cancelled while running; it recovers as cancelled below, with
    // its checkpoint intact for a later resubmit-and-resume.
    bool keep_cancelled = false;
    if (const std::optional<std::string> tombstone = read_if_exists(
            (entry.path() / kTombstoneName).string())) {
      if (tombstone->rfind("keep", 0) == 0) {
        keep_cancelled = true;
      } else {
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
    Job job;
    try {
      const SubmitSpec spec = parse_submit(parse_json(request.payload));
      job.id = id;
      job.priority = spec.priority;
      job.request_json = request.payload;
      job.fingerprint = spec.fingerprint;
      job.algorithm = spec.algorithm;
      job.want_journal = spec.want_journal;
      job.reuse_measurements = spec.reuse_measurements;
      job.deadline_ms = spec.deadline_ms;
    } catch (const std::exception&) {
      // Checksum intact but not a valid submit (e.g. hand-edited):
      // quarantine rather than abort the daemon.
      quarantine_path(entry.path().string());
      continue;
    }
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    if (keep_cancelled) {
      job.status = JobStatus::kCancelled;
    } else {
      DurableLoad result =
          load_checksummed((entry.path() / "result.json").string());
      if (result.status == DurableLoad::Status::kOk) {
        job.status = JobStatus::kDone;
        job.result_json = std::move(result.payload);
        by_fingerprint_[job.fingerprint] = id;
      } else {
        // Missing: interrupted before completing — re-enqueue; run_job
        // resumes from the checkpoint the interrupted run left (if any).
        // Corrupt: quarantine just the torn result and recompute the same
        // way; the checkpoint makes the re-run byte-identical and cheap.
        if (result.status == DurableLoad::Status::kCorrupt)
          quarantine_path((entry.path() / "result.json").string());
        job.status = JobStatus::kQueued;
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
      recorder_.transition(id, "queued", -1, {{"recovered", "true"}});
    job.store_bytes = dir_bytes(entry.path().string());
    store_bytes_total_ += job.store_bytes;
    next_id_ = std::max(next_id_, id + 1);
    // A recovered queued job re-arms a fresh deadline window from daemon
    // start — the original submission instant is gone with the crash, and
    // expiring everything immediately would punish the restart itself.
    if (job.status == JobStatus::kQueued && job.deadline_ms > 0)
      arms.emplace_back(id, deadline_delay(job.deadline_ms));
    jobs_.emplace(id, std::move(job));
  }
  for (const auto& [id, delay] : arms) wheel_->arm(id, delay);
  // Deterministic LRU seed: recovered jobs rank oldest-first by id, so
  // eviction order after a restart does not depend on directory iteration
  // order.
  for (auto& [id, job] : jobs_) job.last_served = ++serve_tick_;

  // Re-index the evaluation-cache buckets already on disk (oldest-first
  // by key — a deterministic, if arbitrary, restart order).
  const fs::path cache_root = fs::path(config_.store_dir) / "cache";
  std::error_code cec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(cache_root, cec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    try {
      std::size_t used = 0;
      const std::uint64_t key =
          std::stoull(entry.path().stem().string(), &used, 16);
      // Only files our own bucket naming produced participate in the
      // budget; anything else in cache/ is left alone.
      if (hex_u64(key) + ".profiles" != name) continue;
      eval_buckets_.emplace(key, 0);
    } catch (const std::exception&) {
      continue;
    }
  }
  for (auto& [key, tick] : eval_buckets_) tick = ++serve_tick_;
}

}  // namespace automap
