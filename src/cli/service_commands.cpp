#include "src/cli/service_commands.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/cli/commands.hpp"
#include "src/io/text_io.hpp"
#include "src/search/search.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/service/wire.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/crash_points.hpp"
#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/json.hpp"
#include "src/support/table.hpp"

namespace automap::cli {

namespace {

// The signal handler can only flip the server's stop flag; the accept
// loop notices within its 200ms poll timeout and joins cleanly.
ServiceServer* g_server = nullptr;

void stop_on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int cmd_serve(const Args& args) {
  const std::string socket_path = args.value_or("--socket");
  const std::string store_dir = args.value_or("--store");
  if (socket_path.empty()) throw Error("serve needs --socket PATH");
  if (store_dir.empty()) throw Error("serve needs --store DIR");
  // Before the store opens: recovering it would run the queued jobs of a
  // daemon that already serves this socket, and maybe this store.
  require_free_socket(socket_path);

  ServiceConfig config;
  config.store_dir = store_dir;
  config.job_workers = args.int_or("--workers", 2);
  config.max_store_bytes =
      static_cast<std::size_t>(args.u64_or("--max-store-bytes", 0));
  config.max_queued_jobs =
      static_cast<std::size_t>(args.u64_or("--max-queued-jobs", 0));

  ServerConfig server_config;
  server_config.io_timeout_ms = args.int_or("--io-timeout-ms", 10000);
  server_config.idle_timeout_ms = args.int_or("--idle-timeout-ms", 60000);

  // Probe the trace destination before serving anything: a bad path fails
  // now with one Error line, not after hours of uptime at shutdown.
  const std::string trace_path = args.value_or("--service-trace");
  if (!trace_path.empty()) require_writable_path(trace_path);

  MappingService service(config);
  ServiceServer server(service, socket_path, server_config);
  g_server = &server;
  std::signal(SIGINT, stop_on_signal);
  std::signal(SIGTERM, stop_on_signal);
  std::cout << "automap service listening on " << socket_path << " (store "
            << store_dir << ")\n"
            << std::flush;
  server.serve();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;
  if (!trace_path.empty()) {
    save_text(trace_path, service.render_service_trace());
    std::cout << "wrote service trace to " << trace_path << "\n";
  }
  std::cout << "automap service stopped\n";
  return 0;
}

/// The deterministic client retry policy from the --retry-* flags.
/// --retry-attempts counts *extra* attempts, so the default 0 keeps the old
/// fail-fast behavior.
RetryPolicy retry_policy_from_args(const Args& args) {
  RetryPolicy policy;
  policy.max_attempts = std::max(1, args.int_or("--retry-attempts", 0) + 1);
  policy.base_ms = args.int_or("--retry-base-ms", 50);
  policy.cap_ms = args.int_or("--retry-cap-ms", 2000);
  policy.seed = args.u64_or("--retry-seed", 1);
  return policy;
}

/// One request/response round trip (with the policy's retries); a
/// `{"type":"error",...}` response becomes the one-line Error diagnostic.
JsonValue call(const std::string& socket_path, const RetryPolicy& retry,
               const std::string& request) {
  const ServiceClient client(socket_path);
  JsonValue response = parse_json(client.call_with_retry(request, retry));
  if (response.str_or("type", "") == "error")
    throw Error(response.str_or("message", "request failed") + " [" +
                response.str_or("code", "error") + "]");
  return response;
}

/// Positional job id.
std::uint64_t job_id_arg(const Args& args, const std::string& action) {
  if (args.positional().size() != 2)
    throw Error("client " + action + " needs <job>");
  return args.pos_u64(1, "<job>");
}

/// `{"op":<op>}`, naming the job for a job op.
std::string op_request(std::string_view op,
                       std::optional<std::uint64_t> job = std::nullopt) {
  JsonWriter out;
  out.begin_object().str("op", op);
  if (job) out.integer("job", *job);
  return out.end_object().take();
}

/// Fetches and prints a completed job: the summary line and mapping bytes
/// are exactly what the one-shot `search` command would have produced.
int print_result(const std::string& socket_path, const RetryPolicy& retry,
                 std::uint64_t id, const Args& args) {
  const JsonValue result = call(socket_path, retry, op_request("result", id));
  std::cout << result.str_or("summary", "") << "\n\n"
            << result.str_or("describe", "");
  const std::string out_path = args.value_or("-o");
  if (!out_path.empty()) {
    save_text(out_path, result.str_or("mapping", ""));
    std::cout << "\nwrote " << out_path << "\n";
  }
  return 0;
}

int wait_for_result(const std::string& socket_path,
                    const RetryPolicy& retry, std::uint64_t id,
                    const Args& args) {
  const int poll_ms = args.int_or("--poll-ms", 100);
  for (;;) {
    const JsonValue status =
        call(socket_path, retry, op_request("status", id));
    const std::string state = status.str_or("status", "");
    // On failure/cancellation the result op renders the reason as the
    // one-line error diagnostic (print_result throws).
    if (state == "done" || state == "failed" || state == "cancelled") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  return print_result(socket_path, retry, id, args);
}

int client_submit(const Args& args, const std::string& socket_path,
                  const RetryPolicy& retry) {
  if (args.positional().size() != 3)
    throw Error("client submit needs <machine> <graph>");
  const std::string machine_text = load_text(args.pos(1));
  const std::string graph_text = load_text(args.pos(2));

  // Same defaults and flag vocabulary as `search`: a submit with flags F
  // asks the daemon for exactly what `search F` computes locally.
  std::string algorithm_name = "ccd";
  SearchOptions options{.seed = 42};
  FaultModel faults;
  apply_search_flags(args, algorithm_name, options, faults);

  JsonWriter request;
  request.begin_object().str("op", "submit").str("machine", machine_text);
  request.str("graph", graph_text).str("algorithm", algorithm_name);
  request.raw("options", search_options_to_json(options));
  request.raw("sim", sim_options_to_json(SimOptions{.faults = faults}));
  request.integer("priority", args.int_or("--priority", 0));
  request.boolean("journal", args.has("--journal"));
  request.boolean("reuse_measurements", args.has("--reuse"));
  if (const int deadline_ms = args.int_or("--deadline-ms", 0);
      deadline_ms > 0)
    request.integer("deadline_ms", deadline_ms);
  const JsonValue response =
      call(socket_path, retry, request.end_object().take());
  const std::uint64_t id = json_u64_or(response, "job", 0);
  std::cout << "job " << id << " " << response.str_or("status", "?")
            << (response.bool_or("cached", false) ? " (cached)" : "")
            << "\n";
  if (!args.has("--wait")) return 0;
  return wait_for_result(socket_path, retry, id, args);
}

int client_journal(const std::string& socket_path,
                   const RetryPolicy& retry, std::uint64_t id,
                   const Args& args) {
  JsonWriter request;
  request.begin_object().str("op", "journal").integer("job", id);
  request.integer("after", args.int_or("--after", -1)).end_object();
  const JsonValue response = call(socket_path, retry, request.take());
  // Events arrive as the journal's exact JSONL lines; printing one per
  // line reconstructs the (tail of the) journal file byte-for-byte.
  if (const JsonValue* events = response.find("events"))
    for (const JsonValue& event : events->array)
      std::cout << event.string << "\n";
  return 0;
}

/// Renders a span attrs object as "k=v k=v" for the trace table.
std::string render_attrs(const JsonValue& span) {
  const JsonValue* attrs = span.find("attrs");
  if (attrs == nullptr) return {};
  std::string out;
  for (const auto& [key, value] : attrs->object) {
    if (!out.empty()) out += " ";
    out += key + "=";
    if (value.kind == JsonValue::Kind::kString)
      out += value.string;
    else if (value.kind == JsonValue::Kind::kBool)
      out += value.boolean ? "true" : "false";
    else
      out += json_double(value.number);
  }
  return out;
}

int client_trace(const std::string& socket_path, const RetryPolicy& retry,
                 std::uint64_t id) {
  const JsonValue response = call(socket_path, retry, op_request("trace", id));
  const JsonValue* spans = response.find("spans");
  std::cout << "job " << id << " trace"
            << (response.bool_or("terminal", false) ? " (terminal)" : "")
            << "\n";
  if (const std::uint64_t dropped = json_u64_or(response, "dropped", 0);
      dropped > 0)
    std::cout << dropped << " spans dropped to the per-job bound\n";
  if (spans == nullptr || spans->array.empty()) {
    std::cout << "no spans recorded\n";
    return 0;
  }
  const double origin = spans->array.front().num_or("start_ms", 0);
  Table table({"span", "at", "duration", "worker", "attrs"});
  for (const JsonValue& span : spans->array) {
    const double start = span.num_or("start_ms", 0);
    const JsonValue* end = span.find("end_ms");
    const bool open =
        end == nullptr || end->kind != JsonValue::Kind::kNumber;
    std::string duration = "open";
    if (span.bool_or("instant", false))
      duration = "-";
    else if (!open)
      duration = format_seconds((end->number - start) / 1000.0);
    const int worker = json_int_or(span, "worker", -1, 0);
    table.add_row({span.str_or("name", "?"),
                   "+" + format_seconds((start - origin) / 1000.0),
                   duration,
                   worker < 0 ? "-" : std::to_string(worker),
                   render_attrs(span)});
  }
  table.print(std::cout);
  return 0;
}

/// First sample value for `name` in a Prometheus exposition ("name 42").
double exposition_value(const std::string& text, const std::string& name) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (line.rfind(name + " ", 0) == 0) {
      try {
        return std::stod(line.substr(name.size() + 1));
      } catch (const std::exception&) {
        return 0;
      }
    }
    start = end + 1;
  }
  return 0;
}

/// One `top` frame: queue/inflight summary from `jobs`, cache hit rates
/// and uptime from `stats`, and the latency quantiles.
void print_top_frame(const std::string& socket_path,
                     const RetryPolicy& retry) {
  const JsonValue jobs_response =
      call(socket_path, retry, op_request("jobs"));
  const JsonValue stats_response =
      call(socket_path, retry, op_request("stats"));
  const std::string metrics = stats_response.str_or("metrics", "");

  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t finished = 0;
  const JsonValue* jobs = jobs_response.find("jobs");
  if (jobs != nullptr) {
    for (const JsonValue& job : jobs->array) {
      const std::string status = job.str_or("status", "");
      if (status == "queued")
        ++queued;
      else if (status == "running")
        ++running;
      else
        ++finished;
    }
  }
  std::cout << "automap service — uptime "
            << format_seconds(
                   exposition_value(metrics,
                                    "automap_service_uptime_seconds"))
            << " — " << queued << " queued, " << running << " running, "
            << finished << " finished\n";
  const double hits = exposition_value(
      metrics, "automap_service_result_cache_hits_total");
  const double misses = exposition_value(
      metrics, "automap_service_result_cache_misses_total");
  std::cout << "result cache: " << hits << " hits / " << hits + misses
            << " lookups; store "
            << format_bytes(static_cast<std::uint64_t>(exposition_value(
                   metrics, "automap_service_store_bytes")))
            << "\n\n";

  Table inflight({"job", "status", "span", "age", "wait", "pri", "algo"});
  if (jobs != nullptr) {
    for (const JsonValue& job : jobs->array) {
      const std::string status = job.str_or("status", "");
      if (status != "queued" && status != "running") continue;
      inflight.add_row(
          {std::to_string(json_u64_or(job, "job", 0)),
           status, job.str_or("span", "?"),
           format_seconds(job.num_or("age_ms", 0) / 1000.0),
           format_seconds(job.num_or("queue_wait_ms", 0) / 1000.0),
           std::to_string(json_int_or(job, "priority", 0)),
           job.str_or("algorithm", "?")});
    }
  }
  if (inflight.num_rows() > 0)
    inflight.print(std::cout);
  else
    std::cout << "no inflight jobs\n";

  if (const JsonValue* quantiles = stats_response.find("quantiles");
      quantiles != nullptr && !quantiles->object.empty()) {
    std::cout << "\n";
    Table latency({"histogram", "p50", "p95", "p99", "count"});
    for (const auto& [name, q] : quantiles->object)
      latency.add_row({name, format_seconds(q.num_or("p50", 0)),
                       format_seconds(q.num_or("p95", 0)),
                       format_seconds(q.num_or("p99", 0)),
                       std::to_string(json_u64_or(q, "count", 0))});
    latency.print(std::cout);
  }
}

int client_top(const std::string& socket_path, const RetryPolicy& retry,
               const Args& args) {
  const int interval_ms = args.int_or("--interval-ms", 1000);
  if (args.has("--once")) {
    print_top_frame(socket_path, retry);
    return 0;
  }
  for (;;) {
    // Home the cursor and clear: a cheap full-screen refresh that avoids
    // a curses dependency. ^C exits through the default handler.
    std::cout << "\x1b[H\x1b[2J";
    print_top_frame(socket_path, retry);
    std::cout << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int client_jobs(const std::string& socket_path, const RetryPolicy& retry) {
  const JsonValue response = call(socket_path, retry, op_request("jobs"));
  const JsonValue* jobs = response.find("jobs");
  if (jobs == nullptr || jobs->array.empty()) {
    std::cout << "no jobs\n";
    return 0;
  }
  for (const JsonValue& job : jobs->array)
    std::cout << "job "
              << json_u64_or(job, "job", 0) << " "
              << job.str_or("status", "?") << " "
              << job.str_or("algorithm", "?") << " priority "
              << json_int_or(job, "priority", 0) << "\n";
  return 0;
}

int cmd_client(const Args& args) {
  const std::string socket_path = args.value_or("--socket");
  if (socket_path.empty()) throw Error("client needs --socket PATH");
  const RetryPolicy retry = retry_policy_from_args(args);
  const std::string& action = args.pos(0);

  if (action == "ping") {
    const JsonValue response = call(socket_path, retry, op_request("ping"));
    std::cout << "pong (wire version "
              << json_int_or(response, "version", 0) << ")\n";
    return 0;
  }
  if (action == "submit") return client_submit(args, socket_path, retry);
  if (action == "status") {
    const std::uint64_t id = job_id_arg(args, action);
    const JsonValue response =
        call(socket_path, retry, op_request("status", id));
    std::cout << "job " << id << " " << response.str_or("status", "?");
    const std::string reason = response.str_or("reason", "");
    if (!reason.empty()) std::cout << " (" << reason << ")";
    const std::string message = response.str_or("message", "");
    if (!message.empty()) std::cout << ": " << message;
    std::cout << "\n";
    return 0;
  }
  if (action == "result")
    return print_result(socket_path, retry, job_id_arg(args, action), args);
  if (action == "wait")
    return wait_for_result(socket_path, retry, job_id_arg(args, action),
                           args);
  if (action == "journal")
    return client_journal(socket_path, retry, job_id_arg(args, action),
                          args);
  if (action == "cancel") {
    const std::uint64_t id = job_id_arg(args, action);
    call(socket_path, retry, op_request("cancel", id));
    std::cout << "cancelled job " << id << "\n";
    return 0;
  }
  if (action == "trace")
    return client_trace(socket_path, retry, job_id_arg(args, action));
  if (action == "top") return client_top(socket_path, retry, args);
  if (action == "jobs") return client_jobs(socket_path, retry);
  if (action == "stats") {
    const JsonValue response = call(socket_path, retry, op_request("stats"));
    std::cout << response.str_or("metrics", "");
    return 0;
  }
  if (action == "shutdown") {
    call(socket_path, retry, op_request("shutdown"));
    std::cout << "shutdown requested\n";
    return 0;
  }
  throw Error("unknown client action '" + action +
              "' (expected ping|submit|status|result|wait|journal|cancel|"
              "trace|top|jobs|stats|shutdown)");
}

/// Enumerates the crash-point registry, one name per line — the chaos
/// harness (tools/chaos_soak.py) drives its kill matrix off this list so
/// it never goes stale against the code.
int cmd_crash_points(const Args&) {
  for (const std::string& name : crash_point_names())
    std::cout << name << "\n";
  return 0;
}

}  // namespace

void register_service_commands(CommandRegistry& registry) {
  registry.add(
      {.name = "serve",
       .positionals = "",
       .summary = "run the mapping service daemon (JSON over a Unix socket)",
       .min_positional = 0,
       .max_positional = 0,
       .flags = {{"--socket", "PATH", "Unix socket to listen on (required)"},
                 {"--store", "DIR", "job-store/cache directory (required; "
                                    "created if missing)"},
                 {"--workers", "N", "concurrent job workers, one search "
                                    "each (default 2; 0 queues jobs "
                                    "without running them, for tests)"},
                 {"--max-store-bytes", "N",
                  "byte budget for the whole store (jobs/ and cache/); "
                  "finished jobs and eval-cache buckets are evicted "
                  "least-recently-served first (default 0 = unbounded)"},
                 {"--max-queued-jobs", "N",
                  "admission cap on queued jobs; excess submits get a "
                  "structured `overloaded` error (default 0 = unbounded)"},
                 {"--io-timeout-ms", "MS",
                  "per-frame I/O deadline; a slower peer is dropped "
                  "(default 10000, 0 = unbounded)"},
                 {"--idle-timeout-ms", "MS",
                  "idle-connection reap deadline between frames "
                  "(default 60000, 0 = unbounded)"},
                 {"--service-trace", "FILE",
                  "write the flight recorder's Chrome trace (job lanes "
                  "per worker, service-event instants; loadable in "
                  "Perfetto) here on shutdown"}},
       .run = cmd_serve});

  std::vector<FlagSpec> client_flags = {
      {"--socket", "PATH", "daemon socket path (required)"},
      {"--priority", "N", "submit: job priority (higher runs first)"},
      {"--journal", "", "submit: record a provenance journal"},
      {"--reuse", "", "submit: reuse measurements from the cross-job "
                      "evaluation cache"},
      {"--wait", "", "submit: block until the job finishes, then print "
                     "its result"},
      {"--poll-ms", "MS", "submit --wait / wait: poll interval "
                          "(default 100)"},
      {"-o", "FILE", "result / --wait: write the best mapping"},
      {"--after", "N", "journal: only events with n > N (default -1: all)"},
      {"--deadline-ms", "MS", "submit: cancel the job (reason `deadline`) "
                              "if not done within MS; resubmitting resumes "
                              "from its checkpoint"},
      {"--retry-attempts", "N", "extra attempts on connect failure or an "
                                "`overloaded` answer (default 0: fail "
                                "fast)"},
      {"--retry-base-ms", "MS", "first full-jitter backoff ceiling "
                                "(default 50; doubles per attempt)"},
      {"--retry-cap-ms", "MS", "max single backoff delay (default 2000)"},
      {"--retry-seed", "N", "retry-jitter RNG seed (default 1; a fixed "
                            "seed replays a fixed schedule)"},
      {"--once", "", "top: print a single frame and exit (for scripts)"},
      {"--interval-ms", "MS", "top: refresh interval (default 1000)"},
  };
  const std::vector<FlagSpec> search_flags = search_option_flags();
  client_flags.insert(client_flags.end(), search_flags.begin(),
                      search_flags.end());
  registry.add(
      {.name = "client",
       .positionals = "<ping|submit|status|result|wait|journal|cancel|trace|"
                      "top|jobs|stats|shutdown> [args]",
       .summary = "drive a running mapping service daemon",
       .min_positional = 1,
       .max_positional = 3,
       .flags = std::move(client_flags),
       .run = cmd_client});

  registry.add(
      {.name = "crash-points",
       .positionals = "",
       .summary = "list the store-write crash points AUTOMAP_CRASH_POINT "
                  "accepts (chaos-testing hooks)",
       .min_positional = 0,
       .max_positional = 0,
       .flags = {},
       .run = cmd_crash_points});
}

}  // namespace automap::cli
