#include <cmath>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "src/automap/automap.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/support/json.hpp"

namespace perfbench {

using namespace automap;

namespace {

constexpr int kSetupRepeats = 15;
constexpr int kCachedClients = 1;
/// Cached ops between two host-speed samples (a sample costs about 25
/// cached ops; sampling every 200 ops left twice the p50 spread).
constexpr std::size_t kOpsPerBurst = 50;
/// Cold jobs the traced run pushes through the daemon, and their clients.
constexpr std::size_t kColdProbeJobs = 30;
constexpr int kColdClients = 3;
/// Status poll interval: small next to a Maestro job (~200 ms with the
/// store on disk).
constexpr auto kPollInterval = std::chrono::milliseconds(5);
/// Cold probe jobs whose daemon answer is compared byte for byte with a
/// one-shot search.
constexpr std::size_t kIdentitySamples = 3;
/// Request probes per kind in the traced run.
constexpr int kServiceProbes = 200;
/// The apps of service_cached's request set (graphs of ~2 KB to ~9 KB);
/// each contributes kCachedRequests / 3 requests with different seeds.
const char* const kCachedApps[] = {"circuit", "stencil", "htr"};
/// service_cached's requests only have to exist: one CCD rotation keeps
/// the cache-filling jobs short while producing full-size answers.
constexpr int kCachedRotations = 1;

/// A failed op: error answers, refusals and broken connections.
struct OpError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// MappingService with 2 job workers sharing 2 evaluation lanes, and a
/// ServiceServer answering on a Unix socket from its own thread.
class Daemon {
 public:
  Daemon(const std::string& store_dir, const std::string& socket_path)
      : service_(ServiceConfig{.store_dir = store_dir,
                               .eval_threads = 2,
                               .job_workers = 2}),
        server_(service_, socket_path),
        client_(socket_path),
        thread_([this] {
          try {
            server_.serve();
          } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(mutex_);
            serve_error_ = e.what();
          }
        }) {}
  ~Daemon() {
    server_.stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  MappingService& service() { return service_; }
  const ServiceClient& client() const { return client_; }
  std::string serve_error() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return serve_error_;
  }

 private:
  MappingService service_;
  ServiceServer server_;
  ServiceClient client_;
  mutable std::mutex mutex_;
  std::string serve_error_;
  std::thread thread_;
};

std::string job_request(const char* op, std::uint64_t job) {
  return std::string("{\"op\":\"") + op + "\",\"job\":" + std::to_string(job) +
         "}";
}

std::uint64_t submitted_job(const std::string& answer) {
  if (answer.rfind("{\"type\":\"submitted\"", 0) != 0)
    throw OpError("submit answered " + answer.substr(0, 160));
  return static_cast<std::uint64_t>(parse_json(answer).num_or("job", 0));
}

/// What one cold op observed beyond its answer.
struct ColdOp {
  std::uint64_t job = 0;
  std::string payload;
  int polls = 0;
  /// Start of the job's queue and run spans, read from status answers
  /// (traced run only; -1 when never seen).
  double submitted_ms = -1;
  double running_ms = -1;
};

void note_spans(const JsonValue& status_answer, ColdOp& out) {
  const JsonValue* spans = status_answer.find("spans");
  if (spans == nullptr) return;
  for (const JsonValue& span : spans->array) {
    const std::string name = span.str_or("name", "");
    if (name == "submitted") out.submitted_ms = span.num_or("start_ms", -1);
    if (name == "running") out.running_ms = span.num_or("start_ms", -1);
  }
}

/// submit → status polls → result. Throws OpError when the daemon refuses
/// or fails the job.
void cold_op(const ServiceClient& client, const std::string& request,
             std::int64_t op, SpanRecorder& spans, ColdOp& out) {
  SpanRecorder::Scope span(spans, "cold_job", 0, op);
  {
    SpanRecorder::Scope call(spans, "client.submit", span.id(), op);
    out.job = submitted_job(client.call(request));
  }
  const std::string status = job_request("status", out.job);
  for (;;) {
    std::this_thread::sleep_for(kPollInterval);
    std::string answer;
    {
      SpanRecorder::Scope call(spans, "client.status", span.id(), op);
      answer = client.call(status);
    }
    ++out.polls;
    const JsonValue parsed = parse_json(answer);
    if (spans.enabled() && out.running_ms < 0) note_spans(parsed, out);
    const std::string state = parsed.str_or("status", "");
    if (state == "done") break;
    if (state != "queued" && state != "running")
      throw OpError("job " + std::to_string(out.job) + " answered " +
                    answer.substr(0, 160));
  }
  SpanRecorder::Scope call(spans, "client.result", span.id(), op);
  out.payload = client.call(job_request("result", out.job));
  if (out.payload.rfind("{\"type\":\"result\"", 0) != 0)
    throw OpError("result answered " + out.payload.substr(0, 160));
}

/// Result-cache hits and misses so far, from the daemon's metrics text.
std::pair<double, double> result_cache_counts(MappingService& service) {
  const std::string text = service.expose_metrics();
  const auto value = [&](const std::string& name) {
    const std::size_t at = text.find("\n" + name + " ");
    return at == std::string::npos ? 0.0
                                   : std::stod(text.substr(at + name.size() + 2));
  };
  return {value("automap_service_result_cache_hits_total"),
          value("automap_service_result_cache_misses_total")};
}

/// In-process handle() against ServiceClient::call of the same finished
/// requests: handle latency per op kind and the transport cost of one
/// cached op (its submit plus its result fetch).
void probe_service(Daemon& daemon,
                   const std::vector<std::pair<std::string, std::uint64_t>>& finished,
                   SpanRecorder& spans, std::map<std::string, double>& layer) {
  for (int i = 0; i < kServiceProbes; ++i) {
    const auto& [submit, job] = finished[i % finished.size()];
    const std::string status = job_request("status", job);
    const std::string result = job_request("result", job);
    const auto timed = [&](const char* name, const auto& call) {
      SpanRecorder::Scope span(spans, name);
      (void)call();
    };
    timed("probe.handle.submit_cached", [&] { return daemon.service().handle(submit); });
    timed("probe.handle.status", [&] { return daemon.service().handle(status); });
    timed("probe.handle.result", [&] { return daemon.service().handle(result); });
    timed("probe.call.submit_cached", [&] { return daemon.client().call(submit); });
    timed("probe.call.result", [&] { return daemon.client().call(result); });
  }
  const auto us = [&](const char* name) { return median_span(spans, name, 1e6); };
  layer["service.handle_us.submit_cached"] = us("probe.handle.submit_cached");
  layer["service.handle_us.status"] = us("probe.handle.status");
  layer["service.handle_us.result"] = us("probe.handle.result");
  layer["service.transport_us"] =
      us("probe.call.submit_cached") - us("probe.handle.submit_cached") +
      us("probe.call.result") - us("probe.handle.result");
}

/// Checkpoints, queue wait, run time and store bytes of one finished cold
/// job, from its `trace` answer plus what its status polls saw. The
/// per-job span ring keeps the first span and drops the oldest others, so
/// the queue and run spans of a long job may only survive in the polls.
struct JobTrace {
  double checkpoints = 0;
  double queue_wait_ms = -1;
  double run_ms = -1;
  double store_bytes = 0;
};

JobTrace job_trace(const ServiceClient& client, const ColdOp& op) {
  const JsonValue trace = parse_json(client.call(job_request("trace", op.job)));
  JobTrace out;
  double submitted = op.submitted_ms, running = op.running_ms, finished = -1;
  int lifecycle = 0;
  for (const JsonValue& span : trace.find("spans")->array) {
    const std::string name = span.str_or("name", "");
    const double start = span.num_or("start_ms", -1);
    if (name == "checkpointed") {
      ++out.checkpoints;
      continue;
    }
    ++lifecycle;
    if (name == "submitted") submitted = start;
    if (name == "running") running = start;
    if (name == "finished") {
      finished = start;
      if (const JsonValue* attrs = span.find("attrs"))
        out.store_bytes = attrs->num_or("store_bytes", 0);
    }
  }
  // A fresh job's lifecycle is submitted, queued, admitted, running,
  // finished; every other dropped span was a checkpoint marker.
  constexpr int kLifecycleSpans = 5;
  out.checkpoints += trace.num_or("dropped", 0) - (kLifecycleSpans - lifecycle);
  if (running >= 0 && submitted >= 0) out.queue_wait_ms = running - submitted;
  if (running >= 0 && finished >= 0) out.run_ms = finished - running;
  return out;
}

double p50_or_zero(const std::vector<double>& samples) {
  const std::optional<Percentile> p = percentile(samples, 0.5);
  return p ? p->value : 0.0;
}

/// Checks one result payload against the inputs it answers; returns the
/// parsed payload for the metrics.
JsonValue check_payload(const AppInputs& in, const std::string& payload,
                        const std::string& what, CheckFailures& failures) {
  JsonValue answer = parse_json(payload);
  if (answer.str_or("type", "") != "result") {
    failures.push_back(what + ": not a result: " + payload.substr(0, 160));
    return answer;
  }
  check_mapping(in, Mapping::parse(answer.str_or("mapping", ""), in.graph),
                what, failures);
  if (!std::isfinite(answer.wide_num_or("best", INFINITY)))
    failures.push_back(what + ": no finite best time");
  return answer;
}

std::uint64_t digest_payload(const JsonValue& answer, std::uint64_t digest) {
  digest = fnv1a(answer.str_or("mapping", ""), digest);
  return fnv1a(json_double(answer.wide_num_or("best", INFINITY)), digest);
}

double payload_speedup(const AppInputs& in, const JsonValue& answer) {
  return speedup_vs_default(in, Mapping::parse(answer.str_or("mapping", ""), in.graph));
}

double search_time(const JsonValue& answer) {
  const JsonValue* stats = answer.find("stats");
  return stats == nullptr ? 0.0 : stats->num_or("search_time_s", 0);
}

std::string run_path(const RunConfig& config, const std::string& name, int rep) {
  return config.run_dir + "/" + name + std::to_string(rep);
}

/// The daemon answer and the one-shot search of the same request must
/// agree byte for byte on the summary line and the mapping.
void check_identity(const AppInputs& in, const SearchOptions& options,
                    const std::string& payload, const std::string& what,
                    CheckFailures& failures) {
  const SearchResult one_shot = automap_optimize(in.sim, SearchAlgorithm::kCcd, options);
  const JsonValue answer = parse_json(payload);
  if (answer.str_or("summary", "") != render_search_summary(one_shot) ||
      answer.str_or("mapping", "") != one_shot.best.serialize())
    failures.push_back(what + ": daemon answer differs from the one-shot search");
}

/// Traced runs also push kColdProbeJobs unseen Maestro requests (paper
/// protocol) through the daemon the way a cold client does — submit,
/// status polls every kPollInterval, result — to measure the persistence
/// and scheduling layers a cached resubmit skips.
void probe_cold_jobs(const RunConfig& config, Daemon& daemon, SpanRecorder& spans,
                     RunResult& result) {
  const AppInputs in("maestro", nullptr);
  std::vector<SearchOptions> options;
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < kColdProbeJobs; ++i) {
    options.push_back(SearchOptions{.seed = derive_seed(config.seed, 3, i),
                                    .export_profiles_db = false});
    requests.push_back(submit_request(in, options.back()));
  }
  std::vector<ColdOp> jobs(kColdProbeJobs);
  std::vector<std::string> errors(kColdProbeJobs);
  run_closed_loop(kColdProbeJobs, kColdClients, [&](std::size_t i) {
    try {
      cold_op(daemon.client(), requests[i], static_cast<std::int64_t>(i), spans, jobs[i]);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });

  std::vector<double> queue_wait, run_ms;
  double checkpoints = 0, store_bytes = 0, polls = 0, finished = 0;
  for (std::size_t i = 0; i < kColdProbeJobs; ++i) {
    const std::string what = "cold job " + std::to_string(i);
    if (!errors[i].empty()) {
      result.failures.push_back(what + ": " + errors[i]);
      continue;
    }
    (void)check_payload(in, jobs[i].payload, what, result.failures);
    if (i < kIdentitySamples)
      check_identity(in, options[i], jobs[i].payload, what, result.failures);
    const JobTrace trace = job_trace(daemon.client(), jobs[i]);
    ++finished;
    checkpoints += trace.checkpoints;
    store_bytes += trace.store_bytes;
    polls += jobs[i].polls;
    if (trace.queue_wait_ms >= 0) queue_wait.push_back(trace.queue_wait_ms);
    if (trace.run_ms >= 0) run_ms.push_back(trace.run_ms);
  }
  auto& layer = result.layer;
  layer["service.checkpoints_per_job"] = checkpoints / std::max(finished, 1.0);
  layer["service.store_bytes_per_job"] = store_bytes / std::max(finished, 1.0);
  layer["service.polls_per_job"] = polls / std::max(finished, 1.0);
  layer["service.queue_wait_ms.p50"] = p50_or_zero(queue_wait);
  layer["service.run_ms.p50"] = p50_or_zero(run_ms);

  SearchOptions exported = options.front();
  exported.export_profiles_db = true;
  probe_persistence(in, automap_optimize(in.sim, SearchAlgorithm::kCcd, exported).profiles_db,
                    config.run_dir, spans);
  layer["search.serialize_state_ms"] = median_span(spans, "probe.serialize_state", 1e3);
  layer["support.durable.save_ms"] = median_span(spans, "probe.durable.save", 1e3);
}

}  // namespace

RunResult run_cached_workload(const RunConfig& config, SpanRecorder& spans) {
  const std::vector<Op> ops = make_ops(config.workload, config.seed, config.seconds);
  RunResult result;
  std::vector<std::unique_ptr<AppInputs>> apps;
  std::unique_ptr<Daemon> daemon;
  std::vector<const AppInputs*> inputs;   // per set member: its app,
  std::vector<SearchOptions> options;     // its search options,
  std::vector<std::string> requests;      // its submit request,
  std::vector<std::uint64_t> jobs;        // the job that answered it cold,
  std::vector<std::string> results;       // the result request for that job
  std::vector<std::string> cold;          // and that job's answer.
  const auto cached_op = [&](std::size_t r, std::int64_t op, SpanRecorder& spans) {
    SpanRecorder::Scope span(spans, "op", 0, op);
    std::string answer;
    {
      SpanRecorder::Scope call(spans, "handle.submit", span.id(), op);
      answer = daemon->service().handle(requests[r]);
    }
    if (submitted_job(answer) != jobs[r] ||
        answer.find("\"cached\":true") == std::string::npos)
      throw OpError("resubmit not answered from the cache: " + answer.substr(0, 160));
    SpanRecorder::Scope call(spans, "handle.result", span.id(), op);
    if (daemon->service().handle(results[r]) != cold[r])
      throw OpError("cached answer differs from the cold answer it re-serves");
  };

  // Set-up: inputs, daemon start with store recovery and one warm-up op.
  // The first repetition starts on an empty store and runs the
  // cache-filling jobs; every later one restarts the daemon on that store,
  // whose recovery puts the finished jobs back in the result cache.
  const std::string store = run_path(config, "store", 0);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon.reset();
    const double slowdown = local_slowdown(1);
    const std::int64_t start = now_ns();
    apps.clear();
    inputs.clear();
    options.clear();
    requests.clear();
    for (const char* app : kCachedApps)
      apps.push_back(std::make_unique<AppInputs>(app, nullptr));
    for (std::size_t r = 0; r < kCachedRequests; ++r) {
      inputs.push_back(apps[r % apps.size()].get());
      options.push_back(SearchOptions{.rotations = kCachedRotations,
                                      .seed = derive_seed(config.seed, 5, r),
                                      .export_profiles_db = false});
      requests.push_back(submit_request(*inputs.back(), options.back()));
    }
    daemon = std::make_unique<Daemon>(store, run_path(config, "d", rep) + ".sock");
    if (rep == 0) {
      // Cache-filling jobs: submit the whole set, then wait for each.
      for (const std::string& request : requests)
        jobs.push_back(submitted_job(daemon->client().call(request)));
      for (const std::uint64_t job : jobs) {
        while (parse_json(daemon->client().call(job_request("status", job)))
                   .str_or("status", "") != "done")
          std::this_thread::sleep_for(kPollInterval);
        results.push_back(job_request("result", job));
        cold.push_back(daemon->client().call(results.back()));
      }
    }
    SpanRecorder off(false);
    cached_op(0, -1, off);
    result.setup_s.push_back((now_ns() - start) * 1e-9 / slowdown);
  }

  const auto cache_before = result_cache_counts(daemon->service());
  std::vector<std::string> op_errors(ops.size());
  result.latency_ms.assign(ops.size(), 0.0);
  result.clients = kCachedClients;
  result.timed_wall_s = run_closed_loop(ops.size(), kCachedClients, [&](std::size_t i) {
    const double slowdown = local_slowdown(kOpsPerBurst);
    const std::int64_t start = now_ns();
    try {
      cached_op(ops[i].request, static_cast<std::int64_t>(i), spans);
    } catch (const std::exception& e) {
      op_errors[i] = e.what();
    }
    result.latency_ms[i] = (now_ns() - start) * 1e-6 / slowdown;
  });
  const auto cache_after = result_cache_counts(daemon->service());
  result.attempted = ops.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (op_errors[i].empty()) continue;
    ++result.failed;
    result.failures.push_back("op " + std::to_string(i) + ": " + op_errors[i]);
  }

  // The set's cold answers: valid, equal to the one-shot search of the
  // same request, digested and measured once. Every cached answer was
  // compared with them in its op.
  std::vector<double> speedups;
  result.digest = fnv1a("");
  for (std::size_t r = 0; r < kCachedRequests; ++r) {
    const std::string what = "request " + std::to_string(r);
    const std::size_t before = result.failures.size();
    const JsonValue answer = check_payload(*inputs[r], cold[r], what, result.failures);
    check_identity(*inputs[r], options[r], cold[r], what, result.failures);
    if (result.failures.size() != before) continue;
    result.digest = digest_payload(answer, result.digest);
    speedups.push_back(payload_speedup(*inputs[r], answer));
    result.sim_search_s += search_time(answer) / kCachedRequests;
  }
  result.speedup_vs_default = geomean(speedups);

  if (config.trace) {
    auto& layer = result.layer;
    const double hits = cache_after.first - cache_before.first;
    const double lookups = hits + (cache_after.second - cache_before.second);
    layer["service.result_cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> finished;
    for (std::size_t r = 0; r < kCachedRequests; ++r)
      finished.emplace_back(requests[r], jobs[r]);
    probe_service(*daemon, finished, spans, layer);
    for (std::size_t r = 0; r < kCachedRequests; ++r)
      probe_parsing(requests[r], *inputs[r], spans);
    layer["support.json.parse_us"] = median_span(spans, "probe.json.parse", 1e6);
    layer["io.graph_parse_us"] = median_span(spans, "probe.io.graph_parse", 1e6);
    layer["io.machine_parse_us"] = median_span(spans, "probe.io.machine_parse", 1e6);
    probe_cold_jobs(config, *daemon, spans, result);
  }
  if (const std::string error = daemon->serve_error(); !error.empty())
    result.failures.push_back("server: " + error);
  return result;
}

}  // namespace perfbench
