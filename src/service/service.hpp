#pragma once

// MappingService — the daemon's transport-independent core.
//
// The service owns the job table and the two cross-job caches; the socket
// server (server.hpp) only moves frames. `handle()` maps one request JSON to
// one response JSON, so every protocol behavior — including size limits and
// structured errors — is testable without sockets.
//
// Scheduling: each accepted job runs as one single-threaded search on a job
// worker. Queued jobs start in priority order (higher `priority` first, FIFO
// within a class); once running, a job's priority changes nothing.
//
// Lifecycle: every job moves through four transitions, each with one
// implementation — enqueue (new, revived and recovered jobs), cancel
// (client cancels and expired deadlines), settle (the terminal state:
// done, failed or cancelled) and evict (the store byte budget). A
// cancelled or failed job keeps its store dir and checkpoint; re-submitting
// the identical request re-enqueues the same job, which resumes from that
// checkpoint to the byte-identical result. A cancel of a *running* job is
// cooperative: the search's cancel predicate fires at the next task
// boundary, and the job lands in `cancelled` without touching the result
// cache or the profiles-db buckets.
//
// Deadlines are instants on the service clock (ServiceConfig::clock_ms).
// Nothing fires them: a running search checks its own in its cancel
// predicate, and every op except `ping`, and every worker claim, first
// expires the overdue queued jobs.
//
// Caches, layered on the profiles-db format:
//  - Result cache: request fingerprint (machine, graph, algorithm,
//    canonical options/sim JSON, journal + reuse flags) → completed job.
//    A repeat submission is answered instantly from the finished job —
//    zero new simulator runs — and bumps
//    `automap_service_result_cache_hits_total`.
//  - Evaluation cache: per (machine fp, graph fp, sim, measurement
//    options) bucket holding a profiles database; the per-mapping-hash,
//    per-seed run reuse happens inside the evaluator exactly as with the
//    CLI's --profiles flag. Opt-in per request (`reuse_measurements`),
//    because seeding measurements changes a search's cache-hit statistics
//    versus a cold run — the default path stays byte-identical to the
//    one-shot CLI.
//
// Persistence: every job writes store/jobs/<id>/{request.json, checkpoint,
// journal.jsonl, result.json, spans.json}, plus a `cancelled` tombstone
// once it is cancelled or failed; cache buckets live in store/cache/. On
// construction the service rescans the store — completed jobs re-enter the
// result cache, cancelled and failed ones come back as such, interrupted
// jobs re-enqueue and resume from their checkpoint — so a daemon restart
// loses nothing.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/service/flight_recorder.hpp"
#include "src/service/wire.hpp"
#include "src/support/metrics.hpp"

namespace automap {

struct JsonValue;
struct SubmitSpec;

struct ServiceConfig {
  /// Job-store/cache directory (created if missing; probed with
  /// require_writable_path before the service accepts anything).
  std::string store_dir;
  /// Unread. Kept only because perfbench/ names it in designated
  /// initializers; delete it with the next change there.
  int eval_threads = 0;
  /// Concurrent job workers, each running one search at a time. 0 = no
  /// worker threads: jobs run only via drain(), which tests use for
  /// deterministic scheduling (a 0-worker daemon holds every job queued).
  /// Negative is rejected.
  int job_workers = 2;
  /// Byte budget for the whole store: the jobs/ tree and the eval-cache
  /// buckets under cache/. When the total exceeds it, finished
  /// (done/failed/cancelled) job dirs and buckets are evicted
  /// least-recently-served first; queued and running jobs are never
  /// evicted, so a budget smaller than the active working set is exceeded
  /// until those jobs finish. 0 = unbounded.
  std::size_t max_store_bytes = 0;
  /// Admission control: maximum jobs waiting in `queued`. A submit that
  /// would exceed it is answered with a structured
  /// `{"type":"error","code":"overloaded","retry_after_ms":N}` instead of
  /// silently growing the queue. 0 = unbounded.
  std::size_t max_queued_jobs = 0;
  /// Clock for deadlines, the flight recorder and the latency histograms:
  /// non-negative milliseconds on an arbitrary steady epoch. Empty =
  /// std::chrono::steady_clock; tests inject a fake for deterministic
  /// deadline, span and quantile assertions. Running searches read it
  /// from their worker threads.
  std::function<double()> clock_ms;
};

class MappingService {
 public:
  explicit MappingService(const ServiceConfig& config);
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Handles one request JSON and returns the response JSON. Thread-safe;
  /// never throws — every failure becomes a `{"type":"error",...}`
  /// response. Long-running work (the searches themselves) happens on job
  /// workers, not here; `handle` only enqueues and reads state.
  [[nodiscard]] std::string handle(const std::string& request_json);

  /// Runs queued jobs on the calling thread until the queue is empty.
  /// The job_workers == 0 test mode; safe alongside workers too.
  void drain();

  /// True once a `shutdown` request was accepted; the socket server polls
  /// this to exit its accept loop.
  [[nodiscard]] bool shutdown_requested() const;

  /// Service-level metrics (result-cache hits, jobs by outcome, aggregated
  /// simulator runs). Exposed over the `stats` op.
  [[nodiscard]] std::string expose_metrics();

  /// Chrome tracing JSON of everything the flight recorder holds (job
  /// lanes per worker, a queue lane, service-event instants). Written to
  /// `--service-trace` when the daemon exits.
  [[nodiscard]] std::string render_service_trace() const;

  // Transport-side incident counters, bumped by the socket server so
  // slow-client defenses show up in `stats`.
  void note_io_timeout();
  void note_idle_reaped();

 private:
  enum class JobStatus { kQueued, kRunning, kDone, kFailed, kCancelled };

  struct Job {
    std::uint64_t id = 0;
    /// The decoded request the job runs, whose fingerprint is the
    /// result-cache key. Immutable and shared with a running search; a
    /// revival that changes the priority or deadline replaces it.
    std::shared_ptr<const SubmitSpec> spec;
    JobStatus status = JobStatus::kQueued;
    /// This process validated the job's request (its machine, graph,
    /// options and algorithm), so a resubmission that finds the job done,
    /// queued or running is answered without validating again. False for
    /// a job recovered from the store: a build's rules can change across
    /// a restart.
    bool validated = false;
    /// Completed response payload (op=result body) or failure message.
    std::string result_json;
    std::string error;
    /// Client cancel token, read by the running search's cancel
    /// predicate. Fresh per enqueue.
    std::shared_ptr<std::atomic<bool>> cancel;
    /// Why the job was (or is being) cancelled: "client" for an explicit
    /// cancel op, "deadline" for an expired per-submit deadline_ms.
    /// Reported in the `status` response's "reason" field.
    std::string cancel_reason;
    /// Service-clock instant the per-submit deadline_ms ends at, set at
    /// every enqueue (a revived or recovered job gets a fresh window);
    /// 0 = none.
    double deadline_at_ms = 0;
    /// Last tick this job was served (settled, result-cache hit, or
    /// result fetch) — the LRU key for eviction.
    std::uint64_t last_served = 0;
    /// Bytes this job's store dir currently holds (request, checkpoint,
    /// journal, result, spans, tombstone).
    std::size_t store_bytes = 0;
  };

  /// One eval-cache bucket file under cache/.
  struct Bucket {
    std::uint64_t last_served = 0;
    std::size_t bytes = 0;
  };

  [[nodiscard]] static const char* status_name(JobStatus status);
  [[nodiscard]] std::string job_dir(std::uint64_t id) const;
  [[nodiscard]] std::string bucket_path(std::uint64_t bucket) const;

  /// handle() minus the timing wrapper: dispatches one request and
  /// reports which op label it ran as (a member of the fixed label set,
  /// "other" for anything unrecognized) for the per-op latency histogram
  /// and error counter.
  [[nodiscard]] std::string dispatch(const std::string& request_json,
                                     std::string& op_label);

  // Request handlers; each takes mutex_ itself. A submit consumes its
  // decoded request: the machine and graph texts move into the job spec.
  [[nodiscard]] std::string handle_submit(JsonValue&& request,
                                          const std::string& request_json);
  /// The job a status, result, journal or cancel request names in its
  /// numeric `job` field, looked up with mutex_ held. Throws the
  /// `not_found` answer when there is none.
  [[nodiscard]] Job& requested_job_locked(const JsonValue& request);
  [[nodiscard]] std::string handle_status(const JsonValue& request);
  [[nodiscard]] std::string handle_result(const JsonValue& request);
  [[nodiscard]] std::string handle_journal(const JsonValue& request);
  [[nodiscard]] std::string handle_cancel(const JsonValue& request);
  [[nodiscard]] std::string handle_trace(const JsonValue& request);
  [[nodiscard]] std::string handle_jobs();

  // The job lifecycle. Each transition has exactly one implementation;
  // all four run with mutex_ held.

  /// Queues `job` for its spec: clears the tombstone and the previous
  /// run's outcome, re-measures the job dir, sets the deadline, opens the
  /// `queued` span (with `attrs`) and wakes a worker. Serves new, revived
  /// and recovered jobs alike; their request is already on disk.
  void enqueue_locked(Job& job, std::vector<SpanAttr> attrs);
  /// Cancels a queued or running job for `reason` ("client" or
  /// "deadline"). A queued job settles as cancelled at once (see
  /// settle_locked); a running job's token fires and run_job settles it.
  void cancel_locked(Job& job, const char* reason);
  /// Lands a job in its terminal state: `detail` is the result payload
  /// (done) or the failure message (failed). Cancelled and failed jobs
  /// persist their state in the tombstone; every job seals and persists
  /// its span timeline and counts as served. Ends by evicting, which may
  /// remove this very job: callers must not touch `job` afterwards.
  void settle_locked(Job& job, JobStatus status, std::string detail);
  /// While the store exceeds max_store_bytes, deletes the
  /// least-recently-served finished job or eval-cache bucket.
  void evict_locked();

  /// Registers a job for `spec` in jobs_ and the fingerprint index; the
  /// newer id keeps a fingerprint two recovered jobs share.
  Job& add_job_locked(std::uint64_t id,
                      std::shared_ptr<const SubmitSpec> spec);
  /// The job the fingerprint index names, or nullptr.
  [[nodiscard]] Job* find_fingerprint_locked(std::uint64_t fingerprint);
  /// The `submitted` answer for `job` when it is done (a result-cache
  /// hit, which counts as served), queued or running; empty when it ended
  /// cancelled or failed, so a resubmission revives it.
  [[nodiscard]] std::string submitted_answer_locked(Job& job);
  /// Removes a queued job from the run queue and the deadline set.
  void dequeue_locked(const Job& job);
  /// Expires every queued job whose deadline has passed. One comparison,
  /// and no clock read, when no queued job has a deadline.
  void expire_overdue_locked();
  /// Admission control: the structured `overloaded` response when the
  /// queue is at max_queued_jobs; empty when the submit may proceed.
  [[nodiscard]] std::string admission_error_locked();
  /// Re-measures the job dir into its byte accounting.
  void remeasure_locked(Job& job);
  /// Re-measures an eval-cache bucket file into the byte accounting and
  /// bumps its LRU tick; forgets the bucket when the file is gone.
  void touch_bucket_locked(std::uint64_t bucket);
  /// Refreshes the entries and store-bytes gauges.
  void update_cache_gauges_locked();

  /// The step worker_loop and drain share: with `lock` held, expires the
  /// overdue jobs and claims the highest-priority queued one (FIFO within
  /// a class); then releases the lock and runs it on this thread. False
  /// when no job was queued.
  bool run_next(std::unique_lock<std::mutex> lock, int worker);
  /// Runs one job to completion (no service mutex held during the search)
  /// and settles it. `worker` tags the job's running span with its lane
  /// in the flight recorder.
  void run_job(std::uint64_t id, int worker);
  void worker_loop(int worker);

  /// Rescans the store directory: completed jobs re-enter the result
  /// cache, interrupted ones re-enqueue (resuming from their checkpoint),
  /// tombstoned dirs are cleaned up or recovered as cancelled or failed.
  /// Torn or corrupt artifacts (bad checksum trailer) are quarantined —
  /// renamed to `*.corrupt`, counted — never a startup failure.
  void recover_store_locked();

  /// Renames a torn/corrupt file or dir to a fresh `*.corrupt[.N]` path
  /// and counts it. Returns false when the rename itself failed.
  bool quarantine_path(const std::string& path);

  ServiceConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::map<std::uint64_t, Job> jobs_;  // ordered: `jobs` lists by id
  std::uint64_t next_id_ = 1;
  /// fingerprint → job id, over every job (one job per fingerprint).
  std::map<std::uint64_t, std::uint64_t> by_fingerprint_;
  /// Queued jobs as (-priority, id): begin() is the next to run.
  std::set<std::pair<int, std::uint64_t>> queue_;
  /// Queued jobs with a deadline as (deadline_at_ms, id).
  std::set<std::pair<double, std::uint64_t>> deadlines_;
  /// Eval-cache bucket key → LRU tick and size (files under cache/).
  std::map<std::uint64_t, Bucket> buckets_;
  /// Monotone LRU clock shared by jobs and eval-cache buckets.
  std::uint64_t serve_tick_ = 0;
  /// Bytes under jobs/ and cache/ per the jobs_ and buckets_ accounting.
  std::size_t store_bytes_total_ = 0;
  /// Completed jobs (the result-cache entries).
  std::size_t done_jobs_ = 0;
  bool shutdown_ = false;
  bool stopping_ = false;

  MetricsRegistry metrics_;
  Counter* m_submitted_ = nullptr;
  Counter* m_completed_ = nullptr;
  Counter* m_failed_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Counter* m_result_cache_hits_ = nullptr;
  Counter* m_result_cache_misses_ = nullptr;
  Counter* m_result_cache_evictions_ = nullptr;
  Counter* m_eval_cache_seeded_ = nullptr;
  Counter* m_eval_cache_misses_ = nullptr;
  Counter* m_eval_cache_evictions_ = nullptr;
  Gauge* m_result_cache_entries_ = nullptr;
  Gauge* m_eval_cache_entries_ = nullptr;
  Gauge* m_store_bytes_ = nullptr;
  Counter* m_sim_runs_ = nullptr;
  Counter* m_overloaded_ = nullptr;
  Counter* m_deadline_expired_ = nullptr;
  Counter* m_quarantined_ = nullptr;
  Counter* m_io_timeouts_ = nullptr;
  Counter* m_idle_reaped_ = nullptr;
  Gauge* m_uptime_ = nullptr;
  /// Queue-wait (submit → running) and end-to-end (submit → terminal)
  /// job latencies, observed under mutex_ (Histogram is not thread-safe).
  Histogram* m_queue_wait_ = nullptr;
  Histogram* m_job_duration_ = nullptr;
  /// Per-op handle latency histogram and error counter, one pair per
  /// member of the fixed op label set (plus "other" for unknown ops —
  /// labels never come from client-controlled strings).
  std::map<std::string, std::pair<Histogram*, Counter*>> op_metrics_;

  /// Milliseconds clock shared with the recorder (config_.clock_ms or
  /// steady_clock); start_ms_ anchors the uptime gauge.
  std::function<double()> clock_ms_;
  double start_ms_ = 0;
  /// Per-job lifecycle span timelines + service-event ring. Has its own
  /// mutex and never calls back into the service, so both locked and
  /// unlocked paths record directly.
  FlightRecorder recorder_;

  std::vector<std::thread> workers_;
};

}  // namespace automap
