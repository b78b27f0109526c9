// Tests for the mapping service (src/service/): the wire framing, the
// transport-independent MappingService protocol, byte-identity of daemon
// answers versus the one-shot search path, the cross-job result cache
// (zero new simulator runs on a repeat submission), journal streaming,
// and warm restart from a persisted store.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/search/algorithms.hpp"
#include "src/search/search.hpp"
#include "src/service/client.hpp"
#include "src/service/flight_recorder.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/service/wire.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/taskgraph/task_graph.hpp"
#include "tests/process_temp_dir.hpp"

namespace automap {
namespace {

namespace fs = std::filesystem;

/// A fresh store directory per test; each test namespaces itself.
std::string fresh_store(const std::string& name) {
  const std::string dir = process_temp_path("store-" + name);
  fs::remove_all(dir);
  return dir;
}

std::string stencil_machine_text() {
  return machine_to_string(make_shepard(2));
}

std::string stencil_graph_text() {
  return task_graph_to_string(make_app_by_name("stencil", 2, 1).graph);
}

/// Small-but-real search configuration used throughout: two rotations of
/// CCD over the 2-node stencil.
SearchOptions small_options(std::uint64_t seed) {
  SearchOptions options;
  options.rotations = 2;
  options.repeats = 2;
  options.seed = seed;
  return options;
}

std::string submit_request(const std::string& options_json,
                           const std::string& extra = "") {
  return "{\"op\":\"submit\",\"machine\":\"" +
         json_escape(stencil_machine_text()) + "\",\"graph\":\"" +
         json_escape(stencil_graph_text()) +
         "\",\"options\":" + options_json + extra + "}";
}

std::string submit_request(const SearchOptions& options,
                           const std::string& extra = "") {
  return submit_request(search_options_to_json(options), extra);
}

/// `v` spelled another way: each object's members in reverse order, and
/// whitespace around every token. It decodes to the same values.
std::string respelled(const JsonValue& v) {
  std::string out;
  switch (v.kind) {
    case JsonValue::Kind::kObject:
      for (auto m = v.object.rbegin(); m != v.object.rend(); ++m)
        out += (out.empty() ? "{\n\t\"" : " ,\n\t\"") +
               json_escape(m->first) + "\" :  " + respelled(m->second);
      return out.empty() ? "{ }" : out + " \r\n}";
    case JsonValue::Kind::kArray:
      for (const JsonValue& item : v.array)
        out += (out.empty() ? "[ " : " , ") + respelled(item);
      return out.empty() ? "[ ]" : out + " ]";
    case JsonValue::Kind::kString:
      return "\"" + json_escape(v.string) + "\"";
    case JsonValue::Kind::kNumber:
      return json_double(v.number);
    case JsonValue::Kind::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNull:
      break;
  }
  return "null";
}

JsonValue handle_json(MappingService& service, const std::string& request) {
  return parse_json(service.handle(request));
}

std::string job_id_of(const JsonValue& response) {
  return std::to_string(
      static_cast<std::uint64_t>(response.num_or("job", 0)));
}

std::string wait_for(MappingService& service, const std::string& id) {
  for (int i = 0; i < 1200; ++i) {
    const JsonValue status =
        handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}");
    const std::string state = status.str_or("status", "");
    if (state == "done" || state == "failed" || state == "cancelled")
      return state;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return "timeout";
}

std::string status_of(MappingService& service, const std::string& id) {
  return handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}")
      .str_or("status", "");
}

/// Value of one counter in a Prometheus-format exposition; -1 if absent.
double metric_value(const std::string& exposition, const std::string& name) {
  std::istringstream is(exposition);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind(name + " ", 0) == 0)
      return std::stod(line.substr(name.size() + 1));
  return -1.0;
}

/// The one-shot reference: the exact search the CLI's `search` command
/// runs for these options, reduced to the response fields the daemon
/// serves (summary line and serialized mapping).
struct OneShot {
  std::string summary;
  std::string mapping;
};

OneShot one_shot_reference(const SearchOptions& options) {
  const MachineModel machine = make_shepard(2);
  const TaskGraph graph = make_app_by_name("stencil", 2, 1).graph;
  const Simulator sim(machine, graph, {});
  SearchOptions local = options;
  local.export_profiles_db = false;
  const SearchResult result =
      find_search_algorithm("ccd")->run(sim, local);
  return {render_search_summary(result), result.best.serialize()};
}

TEST(Wire, FrameRoundTripAndShortHeader) {
  const std::string frame = encode_frame("{\"op\":\"ping\"}");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 13u);
  const auto length = decode_frame_length(frame);
  ASSERT_TRUE(length.has_value());
  EXPECT_EQ(*length, 13u);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "{\"op\":\"ping\"}");
  EXPECT_FALSE(decode_frame_length("ab").has_value());
}

TEST(Service, PingAndUnknownOp) {
  MappingService service({.store_dir = fresh_store("ping"),
                          .job_workers = 0});
  const JsonValue pong = handle_json(service, "{\"op\":\"ping\"}");
  EXPECT_EQ(pong.str_or("type", ""), "pong");
  EXPECT_EQ(static_cast<int>(pong.num_or("version", 0)), kWireVersion);

  const JsonValue err = handle_json(service, "{\"op\":\"frobnicate\"}");
  EXPECT_EQ(err.str_or("type", ""), "error");
  EXPECT_EQ(err.str_or("code", ""), "unknown_op");
}

TEST(Service, StructuredErrorsNotDroppedConnections) {
  MappingService service({.store_dir = fresh_store("errors"),
                          .job_workers = 0});
  // Oversize request: a structured too_large error, not a disconnect.
  const JsonValue big = handle_json(
      service, "{\"op\":\"ping\",\"pad\":\"" +
                   std::string(kDefaultMaxFrameBytes, 'x') + "\"}");
  EXPECT_EQ(big.str_or("type", ""), "error");
  EXPECT_EQ(big.str_or("code", ""), "too_large");

  // Malformed JSON and missing fields are bad_request.
  EXPECT_EQ(handle_json(service, "{nope").str_or("code", ""),
            "bad_request");
  EXPECT_EQ(handle_json(service, "{\"op\":\"submit\"}").str_or("code", ""),
            "bad_request");
  // A bad machine text is rejected at submit time, not as a failed job.
  const JsonValue bad_machine = handle_json(
      service,
      "{\"op\":\"submit\",\"machine\":\"bogus\",\"graph\":\"bogus\"}");
  EXPECT_EQ(bad_machine.str_or("code", ""), "bad_request");
  // An unknown kind name in the machine text names its line, not a
  // source location.
  const JsonValue bad_kind = handle_json(
      service,
      "{\"op\":\"submit\",\"machine\":\"machine m nodes 1\\nmem Bogus count "
      "1 capacity 8\",\"graph\":\"x\"}");
  EXPECT_EQ(bad_kind.str_or("code", ""), "bad_request");
  const std::string kind_message = bad_kind.str_or("message", "");
  EXPECT_NE(kind_message.find("line 2: unknown memory kind 'Bogus'"),
            std::string::npos)
      << kind_message;
  EXPECT_EQ(kind_message.find(".cpp"), std::string::npos) << kind_message;

  // Every other request that cannot be served is a bad_request naming what
  // is wrong, never a source location: not an object, a submit without
  // machine or graph, an unknown algorithm, a job op without a numeric
  // job, malformed options, a machine without processors.
  MappingService roomy({.store_dir = fresh_store("errors-roomy"),
                        .job_workers = 0});
  const std::string options = search_options_to_json(small_options(1));
  std::vector<std::string> requests = {
      "[1]",
      "{\"op\":\"submit\",\"graph\":\"x\"}",
      "{\"op\":\"submit\",\"machine\":\"x\"}",
      submit_request(options, ",\"algorithm\":\"nosuch\""),
      submit_request("{}"),
      submit_request("{\"schema\":9}"),
      submit_request("[]"),
      "{\"op\":\"submit\",\"machine\":\"machine m nodes 1\",\"graph\":\"x\"}"};
  for (const char* op : {"status", "result", "journal", "cancel", "trace"})
    requests.push_back("{\"op\":\"" + std::string(op) + "\",\"job\":\"7\"}");
  for (const std::string& request : requests) {
    const JsonValue answer = handle_json(roomy, request);
    const std::string message = answer.str_or("message", "");
    EXPECT_EQ(answer.str_or("code", ""), "bad_request") << message;
    EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
  }
  // A budget that is not positive would end the search at its start.
  const JsonValue budget =
      handle_json(roomy, submit_request("{\"schema\":1,\"budget\":-5}"));
  const std::string budget_message = budget.str_or("message", "");
  EXPECT_EQ(budget.str_or("code", ""), "bad_request") << budget_message;
  EXPECT_NE(budget_message.find("budget"), std::string::npos)
      << budget_message;
  EXPECT_EQ(budget_message.find(".cpp"), std::string::npos) << budget_message;

  // Job-keyed ops on a missing job are not_found.
  EXPECT_EQ(
      handle_json(service, "{\"op\":\"result\",\"job\":7}").str_or("code",
                                                                   ""),
      "not_found");
}

/// A one-task graph whose region, collection and task names hold every
/// byte from 0x01 to 0x1f the graph text format carries in a name (its
/// whitespace, \t through \r, separates tokens).
TaskGraph control_byte_graph() {
  std::string name = "name";
  for (char c = 0x01; c < 0x20; ++c)
    if (c < '\t' || c > '\r') name += c;
  TaskGraph graph;
  const RegionId region = graph.add_region("r" + name, Rect::line(0, 999), 8);
  const CollectionId all =
      graph.add_collection(region, "c" + name, Rect::line(0, 999));
  graph.add_task("t" + name, 4, {.cpu_seconds_per_point = 1e-4},
                 {{all, Privilege::kReadWrite}});
  return graph;
}

/// A submit of small_options(1) over `graph_json`, the graph text as it
/// stands between the request's quotes.
std::string submit_graph(const std::string& graph_json) {
  return "{\"op\":\"submit\",\"machine\":\"" +
         json_escape(stencil_machine_text()) + "\",\"graph\":\"" +
         graph_json + "\",\"options\":" +
         search_options_to_json(small_options(1)) + "}";
}

TEST(Service, RawControlByteInASubmitIsABadRequest) {
  // JSON requires a byte below 0x20 inside a string to be escaped. This
  // request escapes every one but a single 0x01 in the graph text.
  const std::string store = fresh_store("raw-control-byte");
  MappingService service({.store_dir = store, .job_workers = 0});
  std::string graph = json_escape(task_graph_to_string(control_byte_graph()));
  const std::size_t escaped = graph.find("\\u0001");
  ASSERT_NE(escaped, std::string::npos);
  graph.replace(escaped, 6, "\x01");
  const std::string request = submit_graph(graph);

  const JsonValue answer = handle_json(service, request);
  EXPECT_EQ(answer.str_or("code", ""), "bad_request");
  EXPECT_EQ(answer.str_or("message", ""),
            "json: raw control byte in string at offset " +
                std::to_string(request.find('\x01')));
  EXPECT_TRUE(handle_json(service, "{\"op\":\"jobs\"}")
                  .find("jobs")
                  ->array.empty());
  EXPECT_TRUE(fs::is_empty(fs::path(store) / "jobs"));
}

TEST(Service, LoneSurrogateInASubmitIsABadRequest) {
  // A \u escape of half a UTF-16 surrogate pair encodes no character, so
  // the request is not valid JSON text and makes no job.
  const std::string store = fresh_store("lone-surrogate");
  MappingService service({.store_dir = store, .job_workers = 0});
  std::string graph = json_escape(task_graph_to_string(control_byte_graph()));
  const std::size_t escaped = graph.find("\\u0001");
  ASSERT_NE(escaped, std::string::npos);
  graph.replace(escaped, 6, "\\ud800");
  const std::string request = submit_graph(graph);

  const JsonValue answer = handle_json(service, request);
  EXPECT_EQ(answer.str_or("code", ""), "bad_request");
  EXPECT_EQ(answer.str_or("message", ""),
            "json: unpaired surrogate \\ud800 at offset " +
                std::to_string(request.find("\\ud800")));
  EXPECT_TRUE(handle_json(service, "{\"op\":\"jobs\"}")
                  .find("jobs")
                  ->array.empty());
  EXPECT_TRUE(fs::is_empty(fs::path(store) / "jobs"));
}

TEST(Service, AnswersAndStoreFilesEscapeControlBytesInNames) {
  const std::string store = fresh_store("control-byte-names");
  MappingService service({.store_dir = store, .job_workers = 0});
  const TaskGraph graph = control_byte_graph();
  std::vector<std::string> answers = {service.handle(
      submit_graph(json_escape(task_graph_to_string(graph))))};
  service.drain();
  for (const char* op : {"status", "result", "journal", "trace"})
    answers.push_back(
        service.handle("{\"op\":\"" + std::string(op) + "\",\"job\":1}"));
  answers.push_back(service.handle("{\"op\":\"jobs\"}"));
  answers.push_back(service.handle("{\"op\":\"stats\"}"));
  for (const std::string& answer : answers)
    EXPECT_NO_THROW((void)parse_json(answer)) << answer;
  // The result describes the winner by the names, bytes and all.
  const std::string describe = parse_json(answers[2]).str_or("describe", "");
  EXPECT_NE(describe.find(graph.task(TaskId(0)).name), std::string::npos)
      << describe;

  int files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(store)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    const DurableLoad file = load_checksummed(entry.path().string());
    ASSERT_EQ(file.status, DurableLoad::Status::kOk);
    EXPECT_NO_THROW((void)parse_json(file.payload)) << file.payload;
    ++files;
  }
  EXPECT_GE(files, 3);  // request.json, result.json, spans.json
}

TEST(Service, ConcurrentJobsMatchOneShotSearch) {
  // Two jobs with different seeds run concurrently on two workers, one
  // search each; each answer must be byte-identical to the one-shot search
  // path for its options.
  MappingService service({.store_dir = fresh_store("concurrent"),
                          .job_workers = 2});
  const SearchOptions a = small_options(7);
  const SearchOptions b = small_options(1234);
  const std::string id_a =
      job_id_of(handle_json(service, submit_request(a)));
  const std::string id_b = job_id_of(
      handle_json(service, submit_request(b, ",\"priority\":3")));
  ASSERT_NE(id_a, id_b);
  ASSERT_EQ(wait_for(service, id_a), "done");
  ASSERT_EQ(wait_for(service, id_b), "done");

  const JsonValue result_a =
      handle_json(service, "{\"op\":\"result\",\"job\":" + id_a + "}");
  const JsonValue result_b =
      handle_json(service, "{\"op\":\"result\",\"job\":" + id_b + "}");
  const OneShot ref_a = one_shot_reference(a);
  const OneShot ref_b = one_shot_reference(b);
  EXPECT_EQ(result_a.str_or("summary", ""), ref_a.summary);
  EXPECT_EQ(result_a.str_or("mapping", ""), ref_a.mapping);
  EXPECT_EQ(result_b.str_or("summary", ""), ref_b.summary);
  EXPECT_EQ(result_b.str_or("mapping", ""), ref_b.mapping);
}

TEST(Service, RepeatSubmissionAnsweredFromResultCache) {
  MappingService service({.store_dir = fresh_store("cache"),
                          .job_workers = 0});
  const SearchOptions options = small_options(42);
  const JsonValue first = handle_json(service, submit_request(options));
  EXPECT_EQ(first.str_or("status", ""), "queued");
  EXPECT_FALSE(first.bool_or("cached", false));
  service.drain();

  const double runs_after_first =
      metric_value(service.expose_metrics(), "automap_sim_runs_total");
  ASSERT_GT(runs_after_first, 0.0);

  // The identical request maps onto the finished job: same id, cached,
  // and — after another drain — zero new simulator runs.
  const JsonValue second = handle_json(service, submit_request(options));
  EXPECT_EQ(job_id_of(second), job_id_of(first));
  EXPECT_EQ(second.str_or("status", ""), "done");
  EXPECT_TRUE(second.bool_or("cached", false));
  service.drain();

  const std::string exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(exposition, "automap_sim_runs_total"),
            runs_after_first);
  EXPECT_EQ(
      metric_value(exposition, "automap_service_result_cache_hits_total"),
      1.0);
  EXPECT_EQ(
      metric_value(exposition, "automap_service_jobs_submitted_total"),
      1.0);

  // The fingerprint covers decoded values, not spellings: the same
  // options with reordered keys and extra whitespace hit the same job.
  const std::string options_json = search_options_to_json(options);
  const JsonValue respelled_answer = handle_json(
      service, submit_request(respelled(parse_json(options_json))));
  EXPECT_EQ(job_id_of(respelled_answer), job_id_of(first));
  EXPECT_TRUE(respelled_answer.bool_or("cached", false));

  // A different seed is a different fingerprint: queued, not cached.
  const JsonValue third =
      handle_json(service, submit_request(small_options(43)));
  EXPECT_EQ(third.str_or("status", ""), "queued");
  EXPECT_FALSE(third.bool_or("cached", false));

  // So is each of these, and each lands on a job of its own. The last
  // moves the machine text's trailing newline to the head of the graph
  // text: both readers accept either form, so only the fingerprint's
  // field boundaries tell it from the first request.
  const std::string machine = stencil_machine_text();
  ASSERT_EQ(machine.back(), '\n');
  const std::string moved_newline =
      "{\"op\":\"submit\",\"machine\":\"" +
      json_escape(machine.substr(0, machine.size() - 1)) +
      "\",\"graph\":\"" + json_escape("\n" + stencil_graph_text()) +
      "\",\"options\":" + options_json + "}";
  std::set<std::string> jobs = {job_id_of(first), job_id_of(third)};
  for (const std::string& request :
       {submit_request(options, ",\"journal\":true"),
        submit_request(options, ",\"reuse_measurements\":true"),
        submit_request(options, ",\"algorithm\":\"cd\""), moved_newline}) {
    SCOPED_TRACE(request.substr(request.size() - 40));
    const JsonValue answer = handle_json(service, request);
    EXPECT_EQ(answer.str_or("status", ""), "queued");
    EXPECT_FALSE(answer.bool_or("cached", true));
    EXPECT_TRUE(jobs.insert(job_id_of(answer)).second);
  }
}

TEST(Service, JournalStreamingReconstructsFileBytes) {
  const std::string store = fresh_store("journal");
  MappingService service(
      {.store_dir = store, .job_workers = 0});
  const JsonValue submitted = handle_json(
      service, submit_request(small_options(42), ",\"journal\":true"));
  const std::string id = job_id_of(submitted);
  service.drain();

  const JsonValue response = handle_json(
      service, "{\"op\":\"journal\",\"job\":" + id + ",\"after\":-1}");
  const JsonValue* events = response.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());
  std::string reconstructed;
  for (const JsonValue& event : events->array)
    reconstructed += event.string + "\n";
  EXPECT_EQ(reconstructed,
            load_text(store + "/jobs/" + id + "/journal.jsonl"));

  // The cursor: nothing new past the last served event.
  const long long next =
      static_cast<long long>(response.num_or("next", -99));
  EXPECT_EQ(next + 1, static_cast<long long>(events->array.size()));
  const JsonValue tail = handle_json(
      service, "{\"op\":\"journal\",\"job\":" + id + ",\"after\":" +
                   std::to_string(next) + "}");
  const JsonValue* tail_events = tail.find("events");
  ASSERT_NE(tail_events, nullptr);
  EXPECT_TRUE(tail_events->array.empty());

  // Journal access requires the job to have asked for one.
  const JsonValue plain =
      handle_json(service, submit_request(small_options(5)));
  EXPECT_EQ(handle_json(service, "{\"op\":\"journal\",\"job\":" +
                                     job_id_of(plain) + "}")
                .str_or("code", ""),
            "bad_state");
}

TEST(Service, WarmRestartServesPersistedResults) {
  const std::string store = fresh_store("restart");
  const SearchOptions options = small_options(42);
  std::string id;
  std::string payload;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
    payload = service.handle("{\"op\":\"result\",\"job\":" + id + "}");
    ASSERT_EQ(parse_json(payload).str_or("type", ""), "result");
  }
  // A new daemon on the same store serves the identical bytes without
  // running anything (zero simulator runs since construction).
  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id + "}"),
            payload);
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_sim_runs_total"),
            0.0);
  // And the repeat submission is a result-cache hit across the restart.
  const JsonValue again = handle_json(revived, submit_request(options));
  EXPECT_EQ(job_id_of(again), id);
  EXPECT_TRUE(again.bool_or("cached", false));
}

TEST(Service, WarmRestartResumesInterruptedJobToIdenticalResult) {
  const std::string store = fresh_store("resume");
  const SearchOptions options = small_options(42);
  std::string id;
  std::string payload;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
    payload = service.handle("{\"op\":\"result\",\"job\":" + id + "}");
  }
  // Simulate a daemon killed after checkpointing but before the result
  // was persisted: the checkpoint survives, the result does not.
  ASSERT_TRUE(fs::exists(store + "/jobs/" + id + "/checkpoint"));
  fs::remove(store + "/jobs/" + id + "/result.json");

  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_EQ(handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("status", ""),
            "queued");
  revived.drain();
  // Resuming from the checkpoint lands on the byte-identical result.
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id + "}"),
            payload);
}

TEST(Service, CancelQueuedJobKeepsItsStoreDir) {
  const std::string store = fresh_store("cancel");
  std::string id;
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(small_options(9))));
    ASSERT_TRUE(fs::exists(store + "/jobs/" + id));
    const JsonValue cancelled =
        handle_json(service, "{\"op\":\"cancel\",\"job\":" + id + "}");
    EXPECT_EQ(cancelled.str_or("type", ""), "cancelled");
    EXPECT_EQ(cancelled.str_or("status", ""), "cancelled");
    const JsonValue status =
        handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}");
    EXPECT_EQ(status.str_or("status", ""), "cancelled");
    EXPECT_EQ(status.str_or("reason", ""), "client");
    // Every cancel keeps the dir, under a "keep" tombstone naming the
    // reason, and draining runs nothing.
    EXPECT_TRUE(fs::exists(store + "/jobs/" + id + "/request.json"));
    EXPECT_EQ(load_text(store + "/jobs/" + id + "/cancelled"), "keep client\n");
    service.drain();
    EXPECT_EQ(metric_value(service.expose_metrics(),
                           "automap_sim_runs_total"),
              0.0);
    // A finished job cannot be cancelled.
    const std::string done_id =
        job_id_of(handle_json(service, submit_request(small_options(10))));
    service.drain();
    EXPECT_EQ(handle_json(service,
                          "{\"op\":\"cancel\",\"job\":" + done_id + "}")
                  .str_or("code", ""),
              "bad_state");
  }
  // The cancelled job, and why, survive a restart.
  MappingService revived({.store_dir = store, .job_workers = 0});
  const JsonValue status =
      handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}");
  EXPECT_EQ(status.str_or("status", ""), "cancelled");
  EXPECT_EQ(status.str_or("reason", ""), "client");
}

TEST(Service, RestartCleansTombstonedDirs) {
  // A "purge" tombstone marks a deletion that did not finish (e.g. the
  // daemon died mid-remove_all). Restart scanning completes the cleanup
  // instead of reviving the half-deleted job.
  const std::string store = fresh_store("tombstone");
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(small_options(3))));
  }
  const std::string dir = store + "/jobs/" + id;
  ASSERT_TRUE(fs::exists(dir + "/request.json"));
  save_text(dir + "/cancelled", "purge\n");

  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_EQ(handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("code", ""),
            "not_found");
  revived.drain();
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_sim_runs_total"),
            0.0);
}

TEST(Service, CancelRunningJobCheckpointsAndResumesByteIdentically) {
  // The full cooperative-cancel story: a cancel against a *running* job
  // lands at the next task boundary, leaves the last task-boundary
  // checkpoint on disk, pollutes no cache, survives a daemon restart as
  // `cancelled`, and an identical resubmission resumes from the
  // checkpoint to the byte-identical result.
  const std::string store = fresh_store("cancelrun");
  SearchOptions options = small_options(42);
  options.rotations = 64;  // long enough to reliably cancel mid-run
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 1});
    id = job_id_of(handle_json(service, submit_request(options)));
    // Wait for the first task-boundary checkpoint, so the cancel provably
    // lands mid-search.
    const std::string checkpoint = store + "/jobs/" + id + "/checkpoint";
    for (int i = 0; i < 3000 && !fs::exists(checkpoint); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fs::exists(checkpoint));
    const JsonValue cancelled =
        handle_json(service, "{\"op\":\"cancel\",\"job\":" + id + "}");
    ASSERT_EQ(cancelled.str_or("type", ""), "cancelled");
    ASSERT_EQ(wait_for(service, id), "cancelled");

    // The checkpoint survives; no result was produced or cached.
    EXPECT_TRUE(fs::exists(checkpoint));
    EXPECT_FALSE(fs::exists(store + "/jobs/" + id + "/result.json"));
    EXPECT_EQ(handle_json(service, "{\"op\":\"result\",\"job\":" + id + "}")
                  .str_or("code", ""),
              "bad_state");
    const std::string exposition = service.expose_metrics();
    EXPECT_EQ(metric_value(exposition,
                           "automap_service_jobs_cancelled_total"),
              1.0);
    EXPECT_EQ(metric_value(exposition,
                           "automap_service_result_cache_entries"),
              0.0);
  }

  // Restart: the tombstoned job recovers as cancelled — not re-enqueued.
  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_EQ(handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("status", ""),
            "cancelled");
  revived.drain();
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_sim_runs_total"),
            0.0);

  // Resubmitting the identical request revives the same job, which
  // resumes from the persisted checkpoint...
  const JsonValue again = handle_json(revived, submit_request(options));
  EXPECT_EQ(job_id_of(again), id);
  EXPECT_EQ(again.str_or("status", ""), "queued");
  EXPECT_FALSE(again.bool_or("cached", false));
  revived.drain();
  ASSERT_EQ(handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("status", ""),
            "done");
  const std::string resumed =
      revived.handle("{\"op\":\"result\",\"job\":" + id + "}");

  // ...to the exact bytes an uninterrupted daemon produces.
  MappingService reference({.store_dir = fresh_store("cancelref"),
                            .job_workers = 0});
  const std::string ref_id =
      job_id_of(handle_json(reference, submit_request(options)));
  reference.drain();
  ASSERT_EQ(ref_id, id);  // both stores number jobs from 1
  EXPECT_EQ(resumed,
            reference.handle("{\"op\":\"result\",\"job\":" + ref_id + "}"));
}

TEST(Service, CancelledReuseJobResumesOverItsUnchangedBucket) {
  // A reuse_measurements job seeds its search from its eval-cache bucket.
  // Cancelled after its first checkpoint and resubmitted with the bucket
  // unchanged, it replays its checkpoint log over the same seed and lands
  // on the bytes of a job that was never interrupted.
  const std::string reuse = ",\"reuse_measurements\":true";
  const SearchOptions filler = small_options(42);
  SearchOptions options = small_options(42);
  options.rotations = 64;  // same bucket; long enough to cancel mid-run
  const std::string store = fresh_store("cancelreuse");
  MappingService service({.store_dir = store, .job_workers = 1});
  ASSERT_EQ(wait_for(service, job_id_of(handle_json(
                                  service, submit_request(filler, reuse)))),
            "done");
  const std::string id =
      job_id_of(handle_json(service, submit_request(options, reuse)));
  const std::string dir = store + "/jobs/" + id;
  for (int i = 0; i < 3000 && !fs::exists(dir + "/checkpoint"); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(fs::exists(dir + "/checkpoint"));
  ASSERT_EQ(handle_json(service, "{\"op\":\"cancel\",\"job\":" + id + "}")
                .str_or("type", ""),
            "cancelled");
  ASSERT_EQ(wait_for(service, id), "cancelled");

  ASSERT_EQ(job_id_of(handle_json(service, submit_request(options, reuse))),
            id);
  ASSERT_EQ(wait_for(service, id), "done");
  // The checkpoint was resumed, not quarantined.
  EXPECT_FALSE(fs::exists(dir + "/checkpoint.corrupt"));
  EXPECT_EQ(metric_value(service.expose_metrics(),
                         "automap_service_store_quarantined_total"),
            0.0);

  MappingService reference({.store_dir = fresh_store("cancelreuse-ref"),
                            .job_workers = 0});
  handle_json(reference, submit_request(filler, reuse));
  reference.drain();
  const std::string ref_id =
      job_id_of(handle_json(reference, submit_request(options, reuse)));
  reference.drain();
  ASSERT_EQ(ref_id, id);  // both stores number jobs from 1
  EXPECT_EQ(service.handle("{\"op\":\"result\",\"job\":" + id + "}"),
            reference.handle("{\"op\":\"result\",\"job\":" + id + "}"));
}

/// Bytes of regular files under `dir` — the budget assertions' measure.
std::size_t tree_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it)
    if (it->is_regular_file()) total += it->file_size();
  return total;
}

/// The whole store: job dirs plus eval-cache buckets.
std::size_t store_bytes(const std::string& store) {
  return tree_bytes(store + "/jobs") + tree_bytes(store + "/cache");
}

/// One finished small job's store footprint, measured on a probe store
/// named after the calling test (ctest runs tests as parallel processes),
/// so budget tests do not hard-code file sizes.
std::size_t one_job_bytes(const std::string& name,
                          const std::string& extra = "") {
  const std::string probe_store = fresh_store(name + "-probe");
  MappingService probe({.store_dir = probe_store, .job_workers = 0});
  handle_json(probe, submit_request(small_options(100), extra));
  probe.drain();
  return store_bytes(probe_store);
}

TEST(Service, ResultCacheEvictsLeastRecentlyServed) {
  // A budget of two and a half job sizes holds two finished jobs: the
  // third one's completion evicts the least-recently-served.
  const std::string store = fresh_store("lru");
  const std::size_t budget = 5 * one_job_bytes("lru") / 2;
  std::string payload_1;
  std::string id_1;
  {
    MappingService service({.store_dir = store,
                            .job_workers = 0,
                            .max_store_bytes = budget});
    id_1 = job_id_of(handle_json(service, submit_request(small_options(1))));
    service.drain();
    const std::string id_2 =
        job_id_of(handle_json(service, submit_request(small_options(2))));
    service.drain();
    // Serve job 1 so job 2 becomes the least-recently-served entry.
    payload_1 = service.handle("{\"op\":\"result\",\"job\":" + id_1 + "}");
    ASSERT_EQ(parse_json(payload_1).str_or("type", ""), "result");

    const std::string id_3 =
        job_id_of(handle_json(service, submit_request(small_options(3))));
    service.drain();

    // Job 2 — not job 1 — was evicted, whole store dir included.
    EXPECT_EQ(handle_json(service, "{\"op\":\"status\",\"job\":" + id_2 + "}")
                  .str_or("code", ""),
              "not_found");
    EXPECT_FALSE(fs::exists(store + "/jobs/" + id_2));
    const std::string exposition = service.expose_metrics();
    EXPECT_EQ(metric_value(exposition,
                           "automap_service_result_cache_evictions_total"),
              1.0);
    EXPECT_EQ(metric_value(exposition,
                           "automap_service_result_cache_entries"),
              2.0);

    // Survivors still answer byte-identically; the evicted fingerprint
    // recomputes under a fresh job id.
    EXPECT_EQ(service.handle("{\"op\":\"result\",\"job\":" + id_1 + "}"),
              payload_1);
    const JsonValue recompute =
        handle_json(service, submit_request(small_options(2)));
    EXPECT_NE(job_id_of(recompute), id_2);
    EXPECT_EQ(recompute.str_or("status", ""), "queued");
    EXPECT_FALSE(recompute.bool_or("cached", false));
    (void)id_3;
  }
  // Retained entries re-serve the identical bytes across a warm restart.
  MappingService revived({.store_dir = store,
                          .job_workers = 0,
                          .max_store_bytes = budget});
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id_1 + "}"),
            payload_1);
}

TEST(Service, StoreByteBudgetHoldsAcrossManyJobs) {
  const std::size_t one_job = one_job_bytes("soak");
  ASSERT_GT(one_job, 0u);
  const std::string store = fresh_store("soak");
  const std::size_t budget = 3 * one_job + one_job / 2;
  MappingService service({.store_dir = store,
                          .job_workers = 0,
                          .max_store_bytes = budget});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    handle_json(service, submit_request(small_options(seed)));
    service.drain();
    // The invariant: with no queued/running work outstanding, the on-disk
    // store never exceeds the budget.
    EXPECT_LE(tree_bytes(store + "/jobs"), budget) << "after seed " << seed;
  }
  // Ten jobs cannot fit in ~3.5 job-sizes: eviction actually happened,
  // oldest-first, and the newest job is still servable.
  const JsonValue jobs = handle_json(service, "{\"op\":\"jobs\"}");
  const JsonValue* list = jobs.find("jobs");
  ASSERT_NE(list, nullptr);
  EXPECT_LT(list->array.size(), 10u);
  EXPECT_GT(metric_value(service.expose_metrics(),
                         "automap_service_store_bytes"),
            0.0);
}

TEST(Service, StoreByteBudgetCoversEvalCacheBuckets) {
  // reuse_measurements jobs each write a bucket under cache/; the one
  // byte budget bounds jobs/ and cache/ together.
  const std::string reuse = ",\"reuse_measurements\":true";
  const std::size_t one_job = one_job_bytes("soak-reuse", reuse);
  const std::string store = fresh_store("soak-reuse");
  const std::size_t budget = 3 * one_job + one_job / 2;
  MappingService service({.store_dir = store,
                          .job_workers = 0,
                          .max_store_bytes = budget});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    handle_json(service, submit_request(small_options(seed), reuse));
    service.drain();
    EXPECT_LE(store_bytes(store), budget) << "after seed " << seed;
  }
  const std::string exposition = service.expose_metrics();
  EXPECT_GT(metric_value(exposition,
                         "automap_service_eval_cache_evictions_total"),
            0.0);
  EXPECT_EQ(metric_value(exposition, "automap_service_store_bytes"),
            static_cast<double>(store_bytes(store)));
}

TEST(Service, EvalCacheBucketsEvictLeastRecentlyServed) {
  // Jobs and buckets share one least-recently-served order. Job 42 writes
  // its bucket and then settles, so the bucket is older than the job:
  // a budget one half-bucket short of both jobs' footprint evicts seed
  // 42's bucket and keeps every job.
  const std::string reuse = ",\"reuse_measurements\":true";
  const std::string probe = fresh_store("evalevict-probe");
  {
    MappingService service({.store_dir = probe, .job_workers = 0});
    handle_json(service, submit_request(small_options(42), reuse));
    service.drain();
    handle_json(service, submit_request(small_options(43), reuse));
    service.drain();
  }
  std::size_t bucket_bytes = 0;
  for (auto it = fs::directory_iterator(probe + "/cache");
       it != fs::directory_iterator(); ++it)
    bucket_bytes = std::max<std::size_t>(bucket_bytes, it->file_size());
  ASSERT_GT(bucket_bytes, 0u);

  const std::string store = fresh_store("evalevict");
  MappingService service(
      {.store_dir = store,
       .job_workers = 0,
       .max_store_bytes = store_bytes(probe) - bucket_bytes / 2});
  handle_json(service, submit_request(small_options(42), reuse));
  service.drain();
  handle_json(service, submit_request(small_options(43), reuse));
  service.drain();
  std::size_t bucket_files = 0;
  for (auto it = fs::directory_iterator(store + "/cache");
       it != fs::directory_iterator(); ++it)
    if (it->is_regular_file()) ++bucket_files;
  EXPECT_EQ(bucket_files, 1u);
  EXPECT_EQ(handle_json(service, "{\"op\":\"jobs\"}")
                .find("jobs")
                ->array.size(),
            2u);
  std::string exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_evictions_total"),
            1.0);
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_entries"),
            1.0);
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_result_cache_evictions_total"),
            0.0);

  // Seed 42's bucket is the one that went: a new job in that measurement
  // configuration records an eval-cache miss and recomputes fine.
  SearchOptions more = small_options(42);
  more.rotations = 3;  // different fingerprint, same bucket
  handle_json(service, submit_request(more, reuse));
  service.drain();
  exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_misses_total"),
            3.0);  // both cold starts above, plus this one
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_seeded_total"),
            0.0);
  EXPECT_EQ(metric_value(exposition, "automap_service_jobs_completed_total"),
            3.0);
}

TEST(Service, EvalCacheSeedsRepeatMeasurements) {
  // Opt-in measurement reuse: the first job fills a bucket; a second job
  // over the same measurement configuration (different rotation budget,
  // so a different fingerprint) seeds from it and reports evaluator
  // cache hits.
  MappingService service({.store_dir = fresh_store("evalcache"),
                          .job_workers = 0});
  const SearchOptions first = small_options(42);
  handle_json(service, submit_request(first, ",\"reuse_measurements\":true"));
  service.drain();

  SearchOptions second = first;
  second.rotations = 3;  // new fingerprint, same measurement bucket
  const std::string id = job_id_of(handle_json(
      service, submit_request(second, ",\"reuse_measurements\":true")));
  service.drain();
  EXPECT_EQ(metric_value(service.expose_metrics(),
                         "automap_service_eval_cache_seeded_total"),
            1.0);
  const JsonValue result =
      handle_json(service, "{\"op\":\"result\",\"job\":" + id + "}");
  const JsonValue* stats = result.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->num_or("cache_hits", 0), 0.0);
}

// ---------------------------------------------------------------------
// Admission control, request deadlines, and store quarantine.

TEST(Service, OverloadedWhenQueueFullButDedupeStillAnswered) {
  MappingService service({.store_dir = fresh_store("overload-queue"),
                          .job_workers = 0,
                          .max_queued_jobs = 1});
  const SearchOptions a = small_options(1);
  const JsonValue first = handle_json(service, submit_request(a));
  ASSERT_EQ(first.str_or("status", ""), "queued");

  // A *new* fingerprint is refused with a structured, retryable error.
  const JsonValue refused =
      handle_json(service, submit_request(small_options(2)));
  EXPECT_EQ(refused.str_or("type", ""), "error");
  EXPECT_EQ(refused.str_or("code", ""), "overloaded");
  EXPECT_GT(refused.num_or("retry_after_ms", 0), 0.0);

  // Deduplication beats admission: re-submitting the queued job's exact
  // request is answered from the existing job, never refused.
  const JsonValue repeat = handle_json(service, submit_request(a));
  EXPECT_EQ(job_id_of(repeat), job_id_of(first));
  EXPECT_EQ(repeat.str_or("status", ""), "queued");

  service.drain();
  // Capacity freed: the previously refused request is accepted now.
  EXPECT_EQ(handle_json(service, submit_request(small_options(2)))
                .str_or("status", ""),
            "queued");
  EXPECT_EQ(metric_value(service.expose_metrics(),
                         "automap_service_overloaded_total"),
            1.0);
}

TEST(Service, QueueCapGatesRevivalOfCancelledJobs) {
  MappingService service({.store_dir = fresh_store("overload-revive"),
                          .job_workers = 0,
                          .max_queued_jobs = 1});
  const SearchOptions a = small_options(1);
  const std::string id_a =
      job_id_of(handle_json(service, submit_request(a)));
  handle_json(service, "{\"op\":\"cancel\",\"job\":" + id_a + "}");
  // The slot freed by the cancel goes to a new job...
  ASSERT_EQ(handle_json(service, submit_request(small_options(2)))
                .str_or("status", ""),
            "queued");
  // ...so reviving the cancelled job must pass admission like any other
  // enqueue — and is refused while the queue is full.
  EXPECT_EQ(handle_json(service, submit_request(a)).str_or("code", ""),
            "overloaded");
  service.drain();
  const JsonValue revived = handle_json(service, submit_request(a));
  EXPECT_EQ(job_id_of(revived), id_a);
  EXPECT_EQ(revived.str_or("status", ""), "queued");
  service.drain();
  const JsonValue result = handle_json(
      service, "{\"op\":\"result\",\"job\":" + job_id_of(revived) + "}");
  const OneShot ref = one_shot_reference(a);
  EXPECT_EQ(result.str_or("summary", ""), ref.summary);
  EXPECT_EQ(result.str_or("mapping", ""), ref.mapping);
}

TEST(Service, DeadlineExpiresQueuedJobAndResubmitRecovers) {
  const std::string store = fresh_store("deadline-queued");
  MappingService service(
      {.store_dir = store, .job_workers = 0});
  const SearchOptions options = small_options(42);
  const std::string id = job_id_of(handle_json(
      service, submit_request(options, ",\"deadline_ms\":25")));
  // No workers: the job sits queued until a status poll after its
  // deadline expires it.
  ASSERT_EQ(wait_for(service, id), "cancelled");
  const JsonValue status =
      handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}");
  EXPECT_EQ(status.str_or("reason", ""), "deadline");
  EXPECT_EQ(metric_value(service.expose_metrics(),
                         "automap_service_deadline_expired_total"),
            1.0);
  // Deadline expiry keeps the job dir (tombstone "keep"), so resubmission
  // revives it in place rather than starting a new store entry.
  ASSERT_TRUE(fs::exists(store + "/jobs/" + id));

  // deadline_ms is not part of the fingerprint: the same search without a
  // deadline revives the expired job and runs to the one-shot answer.
  const JsonValue revived = handle_json(service, submit_request(options));
  ASSERT_EQ(job_id_of(revived), id);
  ASSERT_EQ(revived.str_or("status", ""), "queued");
  service.drain();
  const JsonValue result =
      handle_json(service, "{\"op\":\"result\",\"job\":" + id + "}");
  const OneShot ref = one_shot_reference(options);
  EXPECT_EQ(result.str_or("summary", ""), ref.summary);
  EXPECT_EQ(result.str_or("mapping", ""), ref.mapping);
}

TEST(Service, AbsurdDeadlineIsRejectedAtParseTime) {
  MappingService service({.store_dir = fresh_store("deadline-clamp"),
                          .job_workers = 0});
  // 1e300 is valid JSON; accepting it would make the deadline arithmetic
  // on the service clock meaningless. It must bounce as a bad_request,
  // not crash or queue anything.
  const JsonValue refused = handle_json(
      service, submit_request(small_options(7), ",\"deadline_ms\":1e300"));
  EXPECT_EQ(refused.str_or("type", ""), "error");
  EXPECT_EQ(refused.str_or("code", ""), "bad_request");
  EXPECT_TRUE(
      handle_json(service, "{\"op\":\"jobs\"}").find("jobs")->array.empty());
}

TEST(Service, MistypedSubmitFieldsAreBadRequests) {
  MappingService service({.store_dir = fresh_store("strict-submit"),
                          .job_workers = 0});
  // Each of these was once accepted: read as the field's default (and so
  // landing on the default request's job), truncated, or cast out of range.
  for (const std::string extra :
       {",\"algorithm\":5", ",\"priority\":\"high\"", ",\"priority\":1.5",
        ",\"priority\":1e300", ",\"deadline_ms\":\"5000\"",
        ",\"journal\":\"yes\"", ",\"reuse_measurements\":1"}) {
    EXPECT_EQ(handle_json(service, submit_request(small_options(7), extra))
                  .str_or("code", ""),
              "bad_request")
        << extra;
  }
  // The options codec's integers and frozen task ids are checked the same
  // way: no fractions, nothing a cast would wrap or leave undefined.
  const std::string options = search_options_to_json(small_options(7));
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"rotations\":2", "\"rotations\":2.5"},
           {"\"rotations\":2", "\"rotations\":1e300"},
           {"\"frozen\":[]", "\"frozen\":[-1]"},
           {"\"frozen\":[]", "\"frozen\":[0.5]"},
           {"\"seed\":\"7\"", "\"seed\":-1"},
           {"\"seed\":\"7\"", "\"seed\":\"-1\""}}) {
    std::string edited = options;
    ASSERT_NE(edited.find(from), std::string::npos) << from;
    edited.replace(edited.find(from), from.size(), to);
    EXPECT_EQ(handle_json(service, submit_request(edited)).str_or("code", ""),
              "bad_request")
        << to;
  }
  EXPECT_TRUE(
      handle_json(service, "{\"op\":\"jobs\"}").find("jobs")->array.empty());
}

TEST(Service, JobIdsAndJournalCursorsMustBeIntegers) {
  MappingService service({.store_dir = fresh_store("strict-job"),
                          .job_workers = 0});
  const std::string id =
      job_id_of(handle_json(service, submit_request(small_options(7))));
  ASSERT_EQ(id, "1");
  // 1.9 once read as job 1; -1 and 1e300 were undefined casts.
  for (const std::string op :
       {"status", "result", "journal", "cancel", "trace"}) {
    for (const std::string job : {"1.9", "-1", "1e300"}) {
      EXPECT_EQ(handle_json(service, "{\"op\":\"" + op +
                                         "\",\"job\":" + job + "}")
                    .str_or("code", ""),
                "bad_request")
          << op << " " << job;
    }
  }
  for (const std::string after : {"1.5", "\"3\"", "1e300"}) {
    EXPECT_EQ(handle_json(service,
                          "{\"op\":\"journal\",\"job\":1,\"after\":" + after +
                              "}")
                  .str_or("code", ""),
              "bad_request")
        << after;
  }
  EXPECT_EQ(handle_json(service, "{\"op\":\"status\",\"job\":1}")
                .str_or("status", ""),
            "queued");
}

TEST(Service, UnrunnableSearchOptionsAreBadRequestsWithoutAJob) {
  // These parse, so without validation the daemon would queue them; the
  // job would then fail with a precondition message (or, for a NaN budget,
  // never run out) and leave a job directory behind.
  const std::string store = fresh_store("unrunnable-options");
  MappingService service({.store_dir = store, .job_workers = 0});
  const std::string options = search_options_to_json(small_options(7));
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"repeats\":2", "\"repeats\":0"},
           {"\"final_repeats\":31", "\"final_repeats\":0"},
           {"\"final_repeats\":31", "\"final_repeats\":-1"},
           {"\"budget\":\"inf\"", "\"budget\":\"nan\""},
           {"\"frozen\":[]", "\"frozen\":[999]"}}) {
    std::string edited = options;
    ASSERT_NE(edited.find(from), std::string::npos) << from;
    edited.replace(edited.find(from), from.size(), to);
    const JsonValue response = handle_json(service, submit_request(edited));
    EXPECT_EQ(response.str_or("code", ""), "bad_request") << to;
    const std::string message = response.str_or("message", "");
    EXPECT_EQ(message.find('\n'), std::string::npos) << to;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
  }
  EXPECT_TRUE(
      handle_json(service, "{\"op\":\"jobs\"}").find("jobs")->array.empty());
  EXPECT_TRUE(fs::is_empty(fs::path(store) / "jobs"));
}

/// One SimOptions field at a value no simulator runs with: its JSON key
/// and the value's JSON text.
struct BadSimField {
  const char* key;
  const char* value;
};

/// Names each case by its field in the test list.
void PrintTo(const BadSimField& field, std::ostream* os) { *os << field.key; }

class UnrunnableSimOptions : public ::testing::TestWithParam<BadSimField> {};

INSTANTIATE_TEST_SUITE_P(
    Fields, UnrunnableSimOptions,
    ::testing::Values(BadSimField{"iterations", "0"},
                      BadSimField{"noise_sigma", "\"inf\""},
                      BadSimField{"fault_crash", "2"},
                      BadSimField{"fault_straggler", "-0.5"},
                      BadSimField{"fault_straggler_factor", "0.5"},
                      BadSimField{"fault_mem_pressure", "\"nan\""},
                      BadSimField{"fault_mem_headroom", "0"},
                      BadSimField{"fault_copy", "1.5"}));

TEST_P(UnrunnableSimOptions, AreBadRequestsWithoutAJob) {
  // These parse, so without the check at submit the daemon would queue
  // the request; its job would then fail in the Simulator constructor and
  // keep its job directory.
  const BadSimField& bad = GetParam();
  const std::string store = fresh_store(std::string("bad-sim-") + bad.key);
  MappingService service({.store_dir = store, .job_workers = 0});
  const std::string sim = "{\"schema\":" +
                          std::to_string(kSearchOptionsSchema) + ",\"" +
                          bad.key + "\":" + bad.value + "}";
  const JsonValue response = handle_json(
      service, submit_request(small_options(7), ",\"sim\":" + sim));
  EXPECT_EQ(response.str_or("code", ""), "bad_request");
  const std::string message = response.str_or("message", "");
  EXPECT_EQ(message.rfind(std::string("invalid sim options: ") + bad.key +
                              " must be ",
                          0),
            0u)
      << message;
  EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
  EXPECT_TRUE(fs::is_empty(fs::path(store) / "jobs"));
}

TEST(Service, GraphStructureErrorsAreBadRequestsWithoutAJob) {
  // Both graphs are well-formed line by line. Without the structure
  // checks the first would be queued and its job would fail in the
  // simulator, and the second's error would name no task.
  const std::string store = fresh_store("graph-structure");
  MappingService service({.store_dir = store, .job_workers = 0});
  const std::string graph =
      task_graph_to_string(make_app_by_name("circuit", 2, 1).graph);
  const auto request_with = [&](const std::string& from,
                                const std::string& to) {
    std::string edited = graph;
    EXPECT_NE(edited.find(from), std::string::npos) << from;
    edited.replace(edited.find(from), from.size(), to);
    return "{\"op\":\"submit\",\"machine\":\"" +
           json_escape(stencil_machine_text()) + "\",\"graph\":\"" +
           json_escape(edited) + "\"}";
  };
  for (const auto& [request, message] :
       std::vector<std::pair<std::string, std::string>>{
           {request_with("edge 0 0 4 4 ", "edge 0 0 3 3 "),
            "line 32: producer task 0 'calc_new_currents' does not take "
            "collection 3 'node_attrs' as an argument"},
           {request_with("edge 1 0 2 1 bytes 2560 cross 1",
                         "edge 1 0 2 1 bytes 2560 cross 0"),
            "invalid task graph: same-iteration dependence cycle: task 0 "
            "'calc_new_currents' -> task 1 'distribute_charge' -> task 0 "
            "'calc_new_currents'"}}) {
    const JsonValue response = handle_json(service, request);
    EXPECT_EQ(response.str_or("code", ""), "bad_request");
    EXPECT_EQ(response.str_or("message", ""), message);
  }
  EXPECT_TRUE(
      handle_json(service, "{\"op\":\"jobs\"}").find("jobs")->array.empty());
  EXPECT_TRUE(fs::is_empty(fs::path(store) / "jobs"));
}

TEST(Service, ConcurrentFirstResubmissionsOfARecoveredJobAgree) {
  // A recovered job starts unvalidated, so its first resubmissions each
  // validate the request, outside the service mutex and at the same time
  // here. They must all answer from the cache, with the same bytes, and
  // count one hit each.
  const std::string store = fresh_store("concurrent-first-hits");
  const std::string request = submit_request(small_options(42));
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    (void)service.handle(request);
    service.drain();
  }
  MappingService revived({.store_dir = store, .job_workers = 0});
  constexpr int kClients = 4;
  std::vector<std::string> answers(kClients);
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      answers[i] = revived.handle(request);
    });
  }
  for (std::thread& client : clients) client.join();
  const std::string cached =
      "{\"type\":\"submitted\",\"job\":1,\"status\":\"done\",\"cached\":true}";
  for (const std::string& answer : answers) EXPECT_EQ(answer, cached);
  // Validated now: a later resubmission answers the same, without it.
  EXPECT_EQ(revived.handle(request), cached);
  const std::string exposition = revived.expose_metrics();
  EXPECT_EQ(
      metric_value(exposition, "automap_service_result_cache_hits_total"),
      kClients + 1.0);
  EXPECT_EQ(metric_value(exposition, "automap_sim_runs_total"), 0.0);
}

TEST(Service, RecoveredRequestThisBuildRejectsIsStillABadRequest) {
  // A store written by another build can hold a finished job whose
  // request this build refuses: here a machine with a negative capacity,
  // under a valid checksum. Recovery does not validate, so the job comes
  // back done, but resubmitting its request stays a bad_request, every
  // time, and is never a cache hit.
  const std::string store = fresh_store("recovered-rejected");
  std::string machine = stencil_machine_text();
  const std::size_t at = machine.find("capacity ", machine.find("mem FrameBuffer"));
  ASSERT_NE(at, std::string::npos);
  machine.replace(at, machine.find('\n', at) - at, "capacity -5");
  const std::string request =
      "{\"op\":\"submit\",\"machine\":\"" + json_escape(machine) +
      "\",\"graph\":\"" + json_escape(stencil_graph_text()) + "\"}";
  fs::create_directories(store + "/jobs/1");
  save_checksummed(store + "/jobs/1/request.json", request, "request");
  save_checksummed(store + "/jobs/1/result.json",
                   "{\"type\":\"result\",\"job\":1}", "result");

  MappingService revived({.store_dir = store, .job_workers = 0});
  EXPECT_EQ(status_of(revived, "1"), "done");
  const std::string line =
      std::to_string(std::count(machine.begin(), machine.begin() + at, '\n') + 1);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const JsonValue answer = handle_json(revived, request);
    EXPECT_EQ(answer.str_or("code", ""), "bad_request");
    EXPECT_EQ(answer.str_or("message", "").rfind("line " + line + ": integer -5 outside", 0), 0u)
        << answer.str_or("message", "");
  }
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_service_result_cache_hits_total"),
            0.0);
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":1}"),
            "{\"type\":\"result\",\"job\":1}");
}

TEST(Service, ValidationRunsOutsideTheServiceMutex) {
  // A submit whose graph is long and wrong only at its last line keeps one
  // thread validating for most of each call. Validation holds no lock, so
  // another thread's `jobs` ops, which take the service mutex, stay fast
  // meanwhile. Were validation under the mutex, one op per submit would
  // wait out the rest of that parse, most of a submit. "Slow" is half the
  // median submit of the same run, so a loaded host slows both sides.
  MappingService service(
      {.store_dir = fresh_store("validation-unlocked"), .job_workers = 0});
  TaskGraph graph;
  const RegionId region = graph.add_region("r", Rect::line(0, 99), 8);
  const CollectionId all =
      graph.add_collection(region, "all", Rect::line(0, 99));
  for (int i = 0; i < 20000; ++i)
    graph.add_task("t" + std::to_string(i), 1, {.cpu_seconds_per_point = 1e-3},
                   {{all, Privilege::kReadOnly, 1.0}});
  const std::string request =
      "{\"op\":\"submit\",\"machine\":\"" +
      json_escape(stencil_machine_text()) + "\",\"graph\":\"" +
      json_escape(task_graph_to_string(graph) + "bogus\n") + "\"}";
  ASSERT_EQ(handle_json(service, request).str_or("code", ""), "bad_request");

  using Clock = std::chrono::steady_clock;
  constexpr int kSubmits = 6;
  std::vector<Clock::duration> submits;
  std::atomic<bool> submitting{true};
  std::thread submitter([&] {
    for (int i = 0; i < kSubmits; ++i) {
      const Clock::time_point start = Clock::now();
      (void)service.handle(request);
      submits.push_back(Clock::now() - start);
    }
    submitting = false;
  });
  std::vector<Clock::duration> ops;
  while (submitting) {
    const Clock::time_point start = Clock::now();
    (void)service.handle("{\"op\":\"jobs\"}");
    ops.push_back(Clock::now() - start);
  }
  submitter.join();
  std::sort(submits.begin(), submits.end());
  const Clock::duration slow = submits[kSubmits / 2] / 2;
  const auto slow_ops = std::count_if(
      ops.begin(), ops.end(), [&](Clock::duration op) { return op > slow; });
  EXPECT_GT(ops.size(), static_cast<std::size_t>(kSubmits));
  EXPECT_LT(slow_ops, kSubmits / 2) << ops.size() << " ops";
}

TEST(Service, SubmitWhoseRequestCannotBePersistedLeavesNoJob) {
  // A regular file where job 1's dir belongs makes persisting its request
  // fail: the submit is an error, and no job is left queued forever.
  const std::string store = fresh_store("unpersisted");
  MappingService service({.store_dir = store, .job_workers = 0});
  save_text(store + "/jobs/1", "in the way\n");
  EXPECT_EQ(handle_json(service, submit_request(small_options(7)))
                .str_or("type", ""),
            "error");
  EXPECT_TRUE(
      handle_json(service, "{\"op\":\"jobs\"}").find("jobs")->array.empty());
  fs::remove(store + "/jobs/1");
  const JsonValue retried =
      handle_json(service, submit_request(small_options(7)));
  EXPECT_EQ(retried.str_or("status", ""), "queued");
  service.drain();
  EXPECT_EQ(status_of(service, job_id_of(retried)), "done");
}

TEST(Service, NegativeJobWorkersAreRejected) {
  // -1 workers would build a daemon that accepts jobs and never runs them.
  try {
    MappingService service(
        {.store_dir = fresh_store("negative-workers"), .job_workers = -1});
    ADD_FAILURE() << "a service with -1 job workers was constructed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--workers"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(Service, RevivalPersistsTheAcceptedDeadline) {
  const std::string store = fresh_store("deadline-revive-persist");
  MappingService service(
      {.store_dir = store, .job_workers = 0});
  const SearchOptions options = small_options(42);
  const std::string id = job_id_of(handle_json(
      service, submit_request(options, ",\"deadline_ms\":25")));
  ASSERT_EQ(wait_for(service, id), "cancelled");
  // Revive without a deadline. The on-disk request must now match the
  // accepted (deadline-free) submission: after a crash, recovery re-arms
  // from the persisted request, and a stale 25ms window would cancel a
  // job whose reviving client was told it had no deadline.
  ASSERT_EQ(
      handle_json(service, submit_request(options)).str_or("status", ""),
      "queued");
  const DurableLoad persisted =
      load_checksummed(store + "/jobs/" + id + "/request.json");
  ASSERT_EQ(persisted.status, DurableLoad::Status::kOk);
  EXPECT_EQ(persisted.payload.find("deadline_ms"), std::string::npos);
}

TEST(Service, DeadlineCancelsRunningJobAndResumeIsByteIdentical) {
  const std::string store = fresh_store("deadline-running");
  MappingService service(
      {.store_dir = store, .job_workers = 1});
  SearchOptions options = small_options(42);
  options.rotations = 64;  // long enough that a 1ms deadline lands mid-run
  const std::string id = job_id_of(handle_json(
      service, submit_request(options, ",\"deadline_ms\":1")));
  ASSERT_EQ(wait_for(service, id), "cancelled");
  EXPECT_EQ(handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("reason", ""),
            "deadline");

  // Resubmitting without a deadline resumes from whatever checkpoint the
  // interrupted run reached — or from scratch — and must land on the
  // byte-identical one-shot answer either way.
  const JsonValue revived = handle_json(service, submit_request(options));
  ASSERT_EQ(job_id_of(revived), id);
  ASSERT_EQ(wait_for(service, id), "done");
  const JsonValue result =
      handle_json(service, "{\"op\":\"result\",\"job\":" + id + "}");
  const OneShot ref = one_shot_reference(options);
  EXPECT_EQ(result.str_or("summary", ""), ref.summary);
  EXPECT_EQ(result.str_or("mapping", ""), ref.mapping);
}

TEST(Service, CorruptRequestFileQuarantinedAtRestart) {
  const std::string store = fresh_store("quarantine-request");
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(small_options(9))));
  }
  // Garble the persisted request: the trailer no longer matches.
  const std::string dir = store + "/jobs/" + id;
  save_text(dir + "/request.json", "{\"torn\":");

  // Recovery quarantines the whole job dir and starts clean — a corrupt
  // store entry must never wedge daemon startup.
  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_EQ(
      handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
          .str_or("code", ""),
      "not_found");
  EXPECT_TRUE(fs::exists(dir + ".corrupt"));
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_service_store_quarantined_total"),
            1.0);
}

TEST(Service, CorruptResultQuarantinedAndRecomputedByteIdentically) {
  const std::string store = fresh_store("quarantine-result");
  const SearchOptions options = small_options(42);
  std::string id;
  std::string payload;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
    payload = service.handle("{\"op\":\"result\",\"job\":" + id + "}");
  }
  // Flip one byte mid-file: a bit-rotted or torn result.
  const std::string result_path = store + "/jobs/" + id + "/result.json";
  std::string raw = load_text(result_path);
  raw[raw.size() / 2] ^= 0x01;
  save_text(result_path, raw);

  // Recovery quarantines the bad result and re-enqueues the job; the
  // surviving checkpoint resumes it to the byte-identical payload.
  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_EQ(
      handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
          .str_or("status", ""),
      "queued");
  EXPECT_TRUE(fs::exists(result_path + ".corrupt"));
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_service_store_quarantined_total"),
            1.0);
  revived.drain();
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id + "}"),
            payload);
}

TEST(Service, CorruptCheckpointQuarantinedAndJobRunsFresh) {
  const std::string store = fresh_store("quarantine-checkpoint");
  const SearchOptions options = small_options(42);
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
  }
  // Daemon "died" before the result landed, and the checkpoint is torn.
  const std::string dir = store + "/jobs/" + id;
  fs::remove(dir + "/result.json");
  const std::string checkpoint = load_text(dir + "/checkpoint");
  save_text(dir + "/checkpoint", checkpoint.substr(0, checkpoint.size() / 2));

  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  revived.drain();
  // The torn checkpoint was quarantined, not trusted: the job re-ran from
  // scratch and still matches the one-shot answer.
  EXPECT_TRUE(fs::exists(dir + "/checkpoint.corrupt"));
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_service_store_quarantined_total"),
            1.0);
  const JsonValue result =
      handle_json(revived, "{\"op\":\"result\",\"job\":" + id + "}");
  const OneShot ref = one_shot_reference(options);
  EXPECT_EQ(result.str_or("summary", ""), ref.summary);
  EXPECT_EQ(result.str_or("mapping", ""), ref.mapping);
}

TEST(Service, RefusedCheckpointQuarantinedAndJobRunsFresh) {
  // A checkpoint the search would refuse is quarantined like a torn one,
  // and the job reruns from scratch to the one-shot answer: a version-1
  // file an older build left, a version-2 log (whose records an older
  // build raced against another censor line), a log of another algorithm
  // (here the job's own records under multistart's label), or a log
  // written under another configuration (here another seed's job).
  const std::string store = fresh_store("refused-checkpoint");
  const SearchOptions options = small_options(42);
  std::string id;
  std::string own;
  std::string foreign;
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    const std::string other =
        job_id_of(handle_json(service, submit_request(small_options(43))));
    service.drain();
    own = load_checksummed(store + "/jobs/" + id + "/checkpoint").payload;
    foreign = load_checksummed(store + "/jobs/" + other + "/checkpoint")
                  .payload;
  }
  ASSERT_FALSE(foreign.empty());
  ASSERT_EQ(own.rfind("automap-checkpoint 3\n", 0), 0u);
  const std::string version_1 =
      "automap-checkpoint 1\nalgorithm AM-CCD\nrotation 1\nposition 0\n";
  const std::string version_2 =
      "automap-checkpoint 2" + own.substr(own.find('\n'));
  ASSERT_EQ(own.find("\nalgorithm AM-CCD\n"), own.find('\n'));
  const std::string relabelled =
      "automap-checkpoint 3\nalgorithm AM-CCD-multistart" +
      own.substr(own.find('\n', own.find('\n') + 1));
  const std::string dir = store + "/jobs/" + id;
  const OneShot ref = one_shot_reference(options);
  for (const std::string& planted :
       {version_1, version_2, relabelled, foreign}) {
    fs::remove(dir + "/result.json");
    fs::remove(dir + "/checkpoint.corrupt");
    save_checksummed(dir + "/checkpoint", planted, "checkpoint");
    MappingService revived({.store_dir = store, .job_workers = 0});
    revived.drain();
    EXPECT_TRUE(fs::exists(dir + "/checkpoint.corrupt"));
    EXPECT_EQ(metric_value(revived.expose_metrics(),
                           "automap_service_store_quarantined_total"),
              1.0);
    const JsonValue result =
        handle_json(revived, "{\"op\":\"result\",\"job\":" + id + "}");
    EXPECT_EQ(result.str_or("summary", ""), ref.summary);
    EXPECT_EQ(result.str_or("mapping", ""), ref.mapping);
  }
}

// ---------------------------------------------------------------------
// Flight recorder: per-job lifecycle spans served by the `trace` op,
// latency quantiles in `stats`, and the extra `jobs` columns.

/// One span row of a `trace`/`status` response, reduced to the fields the
/// timeline assertions need.
struct SpanView {
  std::string name;
  double start = -1;
  double end = -1;  // -1 encodes a still-open span (end_ms null)
  bool instant = false;
};

std::vector<SpanView> spans_of(const JsonValue& response) {
  std::vector<SpanView> out;
  const JsonValue* spans = response.find("spans");
  if (spans == nullptr) return out;
  for (const JsonValue& s : spans->array) {
    SpanView v;
    v.name = s.str_or("name", "");
    v.start = s.num_or("start_ms", -1);
    const JsonValue* end = s.find("end_ms");
    if (end != nullptr && end->kind == JsonValue::Kind::kNumber)
      v.end = end->number;
    v.instant = s.bool_or("instant", false);
    out.push_back(v);
  }
  return out;
}

const std::set<std::string>& terminal_spans() {
  static const std::set<std::string> kTerminal{"finished", "failed",
                                               "cancelled", "expired"};
  return kTerminal;
}

/// Asserts the non-instant spans form exactly `expected`, monotonically
/// ordered and gap-free: each transition closes the previous span at the
/// instant the next one opens. A gap is legal only right after a terminal
/// span (a revival restarts the chain after real wall time passed).
void expect_timeline(const std::vector<SpanView>& spans,
                     const std::vector<std::string>& expected) {
  std::vector<SpanView> chain;
  for (const SpanView& s : spans)
    if (!s.instant) chain.push_back(s);
  std::vector<std::string> names;
  names.reserve(chain.size());
  for (const SpanView& s : chain) names.push_back(s.name);
  ASSERT_EQ(names, expected);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_GE(chain[i].start, chain[i - 1].start) << names[i];
    if (terminal_spans().count(names[i - 1]) == 0) {
      EXPECT_EQ(chain[i].start, chain[i - 1].end)
          << "gap in the timeline before '" << names[i] << "'";
    } else {
      EXPECT_GE(chain[i].start, chain[i - 1].end) << names[i];
    }
  }
  // A terminal span is instantaneous: the timeline is sealed at one point.
  if (!chain.empty() && terminal_spans().count(names.back()) != 0) {
    EXPECT_EQ(chain.back().end, chain.back().start);
  }
}

TEST(Service, TraceRecordsFinishedTimelineAndPersistsSpans) {
  const std::string store = fresh_store("trace-finished");
  MappingService service(
      {.store_dir = store, .job_workers = 0});
  const std::string id =
      job_id_of(handle_json(service, submit_request(small_options(42))));
  service.drain();

  const JsonValue trace =
      handle_json(service, "{\"op\":\"trace\",\"job\":" + id + "}");
  EXPECT_EQ(trace.str_or("type", ""), "trace");
  EXPECT_TRUE(trace.bool_or("terminal", false));
  expect_timeline(spans_of(trace), {"submitted", "queued", "admitted",
                                    "running", "finished"});

  // `status` carries the same timeline plus the current span name.
  const JsonValue status =
      handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}");
  EXPECT_EQ(status.str_or("span", ""), "finished");
  ASSERT_NE(status.find("spans"), nullptr);
  EXPECT_EQ(status.find("spans")->array.size(),
            trace.find("spans")->array.size());

  // The timeline was persisted through the durable-write path.
  const DurableLoad persisted =
      load_checksummed(store + "/jobs/" + id + "/spans.json");
  ASSERT_EQ(persisted.status, DurableLoad::Status::kOk);
  EXPECT_NE(persisted.payload.find("\"finished\""), std::string::npos);

  // A job nobody submitted gets a structured error, not a hang.
  const JsonValue missing =
      handle_json(service, "{\"op\":\"trace\",\"job\":777}");
  EXPECT_EQ(missing.str_or("type", ""), "error");
  EXPECT_EQ(missing.str_or("code", ""), "not_found");
}

TEST(Service, TraceRecordsCancelledAndExpiredTimelines) {
  MappingService service({.store_dir = fresh_store("trace-terminal"),
                          .job_workers = 0});
  // Client cancel of a queued job seals the chain as `cancelled`.
  const std::string cancelled =
      job_id_of(handle_json(service, submit_request(small_options(1))));
  handle_json(service, "{\"op\":\"cancel\",\"job\":" + cancelled + "}");
  const JsonValue cancel_trace =
      handle_json(service, "{\"op\":\"trace\",\"job\":" + cancelled + "}");
  EXPECT_TRUE(cancel_trace.bool_or("terminal", false));
  expect_timeline(spans_of(cancel_trace),
                  {"submitted", "queued", "cancelled"});

  // Deadline expiry of a queued job (no workers) seals it as `expired`.
  const std::string expired = job_id_of(handle_json(
      service, submit_request(small_options(2), ",\"deadline_ms\":25")));
  ASSERT_EQ(wait_for(service, expired), "cancelled");
  const JsonValue expiry_trace =
      handle_json(service, "{\"op\":\"trace\",\"job\":" + expired + "}");
  EXPECT_TRUE(expiry_trace.bool_or("terminal", false));
  expect_timeline(spans_of(expiry_trace),
                  {"submitted", "queued", "expired"});
}

TEST(Service, TraceSurvivesJobEviction) {
  // Mirrors ResultCacheEvictsLeastRecentlyServed: with room for two
  // finished jobs, serving job 1 makes job 2 the LRU victim of job 3's
  // completion. The recorder keeps answering for the evicted job and
  // marks the eviction.
  MappingService service({.store_dir = fresh_store("trace-evict"),
                          .job_workers = 0,
                          .max_store_bytes =
                              5 * one_job_bytes("trace-evict") / 2});
  const std::string id_1 =
      job_id_of(handle_json(service, submit_request(small_options(1))));
  service.drain();
  const std::string id_2 =
      job_id_of(handle_json(service, submit_request(small_options(2))));
  service.drain();
  (void)service.handle("{\"op\":\"result\",\"job\":" + id_1 + "}");
  job_id_of(handle_json(service, submit_request(small_options(3))));
  service.drain();
  ASSERT_EQ(handle_json(service, "{\"op\":\"status\",\"job\":" + id_2 + "}")
                .str_or("code", ""),
            "not_found");

  const JsonValue trace =
      handle_json(service, "{\"op\":\"trace\",\"job\":" + id_2 + "}");
  EXPECT_EQ(trace.str_or("type", ""), "trace");
  const std::vector<SpanView> spans = spans_of(trace);
  expect_timeline(spans, {"submitted", "queued", "admitted", "running",
                          "finished"});
  bool evicted_marker = false;
  for (const SpanView& s : spans)
    evicted_marker |= s.instant && s.name == "evicted";
  EXPECT_TRUE(evicted_marker);
}

TEST(Service, TraceSurvivesWarmRestartAndRecordsRevival) {
  const std::string store = fresh_store("trace-restart");
  const SearchOptions options = small_options(42);
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(
        service, submit_request(options, ",\"deadline_ms\":25")));
    ASSERT_EQ(wait_for(service, id), "cancelled");
  }

  // The restored timeline replays the dead daemon's spans.
  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  const JsonValue restored =
      handle_json(revived, "{\"op\":\"trace\",\"job\":" + id + "}");
  EXPECT_TRUE(restored.bool_or("terminal", false));
  expect_timeline(spans_of(restored), {"submitted", "queued", "expired"});

  // Resubmitting revives the expired job: the sealed timeline reopens and
  // runs through to `finished` — one trace spanning both lifetimes.
  ASSERT_EQ(job_id_of(handle_json(revived, submit_request(options))), id);
  const JsonValue reopened =
      handle_json(revived, "{\"op\":\"trace\",\"job\":" + id + "}");
  EXPECT_FALSE(reopened.bool_or("terminal", false));
  revived.drain();
  const JsonValue full =
      handle_json(revived, "{\"op\":\"trace\",\"job\":" + id + "}");
  EXPECT_TRUE(full.bool_or("terminal", false));
  expect_timeline(spans_of(full),
                  {"submitted", "queued", "expired", "queued", "admitted",
                   "running", "finished"});
}

TEST(Service, JobsReportAgeWaitSpanAndOpErrorsCountPerOp) {
  MappingService service({.store_dir = fresh_store("jobs-fields"),
                          .job_workers = 0});
  const std::string id =
      job_id_of(handle_json(service, submit_request(small_options(3))));
  const JsonValue queued = handle_json(service, "{\"op\":\"jobs\"}");
  const JsonValue* list = queued.find("jobs");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 1u);
  EXPECT_EQ(list->array[0].str_or("span", ""), "queued");
  EXPECT_GE(list->array[0].num_or("age_ms", -1), 0.0);
  EXPECT_GE(list->array[0].num_or("queue_wait_ms", -1), 0.0);
  service.drain();
  EXPECT_EQ(handle_json(service, "{\"op\":\"jobs\"}")
                .find("jobs")
                ->array[0]
                .str_or("span", ""),
            "finished");
  (void)id;

  // Errors are attributed to the op that failed; unknown ops pool under
  // the fixed "other" label so clients can never mint new label values.
  handle_json(service, "{\"op\":\"result\",\"job\":999}");
  handle_json(service, "{\"op\":\"frobnicate\"}");
  const std::string exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(
                exposition,
                "automap_service_op_errors_total{op=\"result\"}"),
            1.0);
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_op_errors_total{op=\"other\"}"),
            1.0);
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_op_errors_total{op=\"submit\"}"),
            0.0);
  EXPECT_GE(metric_value(exposition, "automap_service_uptime_seconds"),
            0.0);
}

TEST(Service, SpansFileWithNonIntegerCountersIsQuarantined) {
  // restore() refuses a count that is not a bounded integer (a cast of the
  // double would be undefined behaviour), so recovery quarantines the file.
  FlightRecorder recorder([] { return 0.0; });
  const std::string span = "{\"name\":\"queued\",\"start_ms\":1";
  const std::vector<std::string> malformed = {
      "{\"dropped\":1e300,\"spans\":[]}",
      "{\"dropped\":-1,\"spans\":[]}",
      "{\"dropped\":0.5,\"spans\":[]}",
      "{\"spans\":[" + span + ",\"worker\":1e300}]}",
      "{\"spans\":[" + span + ",\"worker\":-2}]}",
      "{\"spans\":[" + span + ",\"worker\":\"0\"}]}"};
  for (const std::string& payload : malformed)
    EXPECT_THROW(recorder.restore(1, payload), Error) << payload;
  recorder.restore(1,
                   "{\"dropped\":3,\"spans\":[" + span + ",\"worker\":0}]}");
  EXPECT_NE(recorder.serialize(1).find("\"dropped\":3,"), std::string::npos);

  const std::string store = fresh_store("quarantine-spans");
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(small_options(9))));
  }
  const std::string spans = store + "/jobs/" + id + "/spans.json";
  save_checksummed(spans, "{\"dropped\":1e300,\"spans\":[]}", "spans");
  MappingService revived(
      {.store_dir = store, .job_workers = 0});
  EXPECT_TRUE(fs::exists(spans + ".corrupt"));
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_service_store_quarantined_total"),
            1.0);
}

TEST(Service, StatsQuantilesMatchHistogramUnderFakeClock) {
  // A fake clock advancing 100ms per reading makes every latency exact:
  // handle() reads it twice per request (start, end) and `ping` never
  // touches the clock in between, so each ping observes exactly 0.1s.
  auto tick = std::make_shared<double>(0.0);
  ServiceConfig config;
  config.store_dir = fresh_store("fake-clock");
  config.job_workers = 0;
  config.clock_ms = [tick] {
    *tick += 100.0;
    return *tick;
  };
  MappingService service(config);
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(handle_json(service, "{\"op\":\"ping\"}").str_or("type", ""),
              "pong");

  const JsonValue stats = handle_json(service, "{\"op\":\"stats\"}");
  const JsonValue* quantiles = stats.find("quantiles");
  ASSERT_NE(quantiles, nullptr);
  const JsonValue* ping =
      quantiles->find("automap_service_handle_seconds{op=\"ping\"}");
  ASSERT_NE(ping, nullptr);
  EXPECT_EQ(ping->num_or("count", -1), 4.0);
  // 0.1s lands in the (0.05, 0.25] handle bucket; with all four
  // observations there the interpolated quantiles are hand-computable.
  EXPECT_NEAR(ping->num_or("p50", -1), 0.15, 1e-12);
  EXPECT_NEAR(ping->num_or("p95", -1), 0.24, 1e-12);
  EXPECT_NEAR(ping->num_or("p99", -1), 0.248, 1e-12);

  // The uptime gauge runs off the same injected clock.
  EXPECT_GT(metric_value(service.expose_metrics(),
                         "automap_service_uptime_seconds"),
            0.0);
}

// ---------------------------------------------------------------------
// The job lifecycle on an injected clock: deadlines are instants on the
// service clock, checked by a sweep before every op and worker claim, so
// these tests move time by hand instead of sleeping.

/// A service clock that only moves when the test says so.
struct ManualClock {
  std::shared_ptr<double> now = std::make_shared<double>(0.0);
  std::function<double()> fn() const {
    return [now = now] { return *now; };
  }
  void set(double ms) const { *now = ms; }
};

TEST(Service, QueuedJobExpiresOnceTheServiceClockPassesItsDeadline) {
  const ManualClock clock;
  MappingService service({.store_dir = fresh_store("clock-expire"),
                          .job_workers = 0,
                          .clock_ms = clock.fn()});
  const std::string id = job_id_of(handle_json(
      service, submit_request(small_options(42), ",\"deadline_ms\":1000")));
  clock.set(999);
  EXPECT_EQ(status_of(service, id), "queued");
  clock.set(1000);
  // No worker starts an overdue job: the claim expires it first.
  service.drain();
  const JsonValue status =
      handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}");
  EXPECT_EQ(status.str_or("status", ""), "cancelled");
  EXPECT_EQ(status.str_or("reason", ""), "deadline");
  const std::string exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(exposition, "automap_sim_runs_total"), 0.0);
  EXPECT_EQ(metric_value(exposition, "automap_service_deadline_expired_total"),
            1.0);
}

TEST(Service, JobsSettledBeforeTheirDeadlineNeverExpire) {
  const ManualClock clock;
  MappingService service({.store_dir = fresh_store("clock-settled"),
                          .job_workers = 0,
                          .clock_ms = clock.fn()});
  const std::string deadline = ",\"deadline_ms\":1000";
  const std::string done = job_id_of(
      handle_json(service, submit_request(small_options(1), deadline)));
  service.drain();
  const std::string cancelled = job_id_of(
      handle_json(service, submit_request(small_options(2), deadline)));
  handle_json(service, "{\"op\":\"cancel\",\"job\":" + cancelled + "}");
  clock.set(5000);
  EXPECT_EQ(status_of(service, done), "done");
  const JsonValue status =
      handle_json(service, "{\"op\":\"status\",\"job\":" + cancelled + "}");
  EXPECT_EQ(status.str_or("status", ""), "cancelled");
  EXPECT_EQ(status.str_or("reason", ""), "client");
  expect_timeline(
      spans_of(handle_json(service,
                           "{\"op\":\"trace\",\"job\":" + cancelled + "}")),
      {"submitted", "queued", "cancelled"});
  EXPECT_EQ(metric_value(service.expose_metrics(),
                         "automap_service_deadline_expired_total"),
            0.0);
}

TEST(Service, RevivedJobGetsAFreshDeadlineWindow) {
  const ManualClock clock;
  MappingService service({.store_dir = fresh_store("clock-revive"),
                          .job_workers = 0,
                          .clock_ms = clock.fn()});
  const std::string request =
      submit_request(small_options(42), ",\"deadline_ms\":1000");
  const std::string id = job_id_of(handle_json(service, request));
  clock.set(1000);
  ASSERT_EQ(status_of(service, id), "cancelled");
  // Revived at 1500, the job's window runs to 2500, not to the first
  // submission's 1000.
  clock.set(1500);
  ASSERT_EQ(job_id_of(handle_json(service, request)), id);
  clock.set(2499);
  EXPECT_EQ(status_of(service, id), "queued");
  clock.set(2500);
  EXPECT_EQ(status_of(service, id), "cancelled");
  EXPECT_EQ(metric_value(service.expose_metrics(),
                         "automap_service_deadline_expired_total"),
            2.0);
}

TEST(Service, ServiceDestroyedWithDeadlinesPendingShutsDownCleanly) {
  const ManualClock clock;
  const std::string store = fresh_store("clock-destroy");
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 2, .clock_ms = clock.fn()});
    id = job_id_of(handle_json(
        service, submit_request(small_options(42),
                                ",\"deadline_ms\":31622400000")));
  }
  // Nothing fired behind the service's back: the job recovers queued,
  // with a fresh window on the new service's clock.
  clock.set(1e9);
  MappingService revived(
      {.store_dir = store, .job_workers = 0, .clock_ms = clock.fn()});
  const std::string state = status_of(revived, id);
  EXPECT_TRUE(state == "queued" || state == "done") << state;
  EXPECT_EQ(metric_value(revived.expose_metrics(),
                         "automap_service_deadline_expired_total"),
            0.0);
}

TEST(Service, ExpiredJobReportsItsReasonAfterRestart) {
  const ManualClock clock;
  const std::string store = fresh_store("clock-reason");
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .job_workers = 0, .clock_ms = clock.fn()});
    id = job_id_of(handle_json(
        service, submit_request(small_options(42), ",\"deadline_ms\":10")));
    clock.set(10);
    ASSERT_EQ(status_of(service, id), "cancelled");
  }
  MappingService revived({.store_dir = store, .job_workers = 0});
  const JsonValue status =
      handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}");
  EXPECT_EQ(status.str_or("status", ""), "cancelled");
  EXPECT_EQ(status.str_or("reason", ""), "deadline");
}

/// A machine whose memories hold 1 KiB: no stencil mapping fits, so every
/// candidate runs out of memory and the search fails at its finalists.
std::string tiny_memory_submit() {
  std::string machine = stencil_machine_text();
  const std::string key = " capacity ";
  for (std::size_t at = machine.find(key); at != std::string::npos;
       at = machine.find(key, at + key.size())) {
    const std::size_t end = machine.find('\n', at);
    machine.replace(at + key.size(), end - at - key.size(), "1024");
  }
  return "{\"op\":\"submit\",\"machine\":\"" + json_escape(machine) +
         "\",\"graph\":\"" + json_escape(stencil_graph_text()) +
         "\",\"options\":" + search_options_to_json(small_options(42)) + "}";
}

/// Non-instant spans named `name` in a job's trace.
std::size_t span_count(MappingService& service, const std::string& id,
                       const std::string& name) {
  std::size_t n = 0;
  for (const SpanView& s : spans_of(handle_json(
           service, "{\"op\":\"trace\",\"job\":" + id + "}")))
    n += !s.instant && s.name == name;
  return n;
}

TEST(Service, FailedJobStaysFailedAcrossRestartAndRevivesInPlace) {
  const std::string store = fresh_store("failed-restart");
  const std::string failure = "finalist protocol found no executable mapping";
  std::string id;
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    id = job_id_of(handle_json(service, tiny_memory_submit()));
    service.drain();
    ASSERT_EQ(status_of(service, id), "failed");
  }
  MappingService revived({.store_dir = store, .job_workers = 0});
  const JsonValue status =
      handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}");
  EXPECT_EQ(status.str_or("status", ""), "failed");
  EXPECT_NE(status.str_or("message", "").find(failure), std::string::npos)
      << status.str_or("message", "");
  // A restart never re-runs it...
  revived.drain();
  EXPECT_EQ(span_count(revived, id, "admitted"), 1u);
  EXPECT_EQ(span_count(revived, id, "running"), 1u);
  EXPECT_EQ(metric_value(revived.expose_metrics(), "automap_sim_runs_total"),
            0.0);
  // ...and resubmitting the request revives the same job.
  const JsonValue again = handle_json(revived, tiny_memory_submit());
  EXPECT_EQ(job_id_of(again), id);
  EXPECT_EQ(again.str_or("status", ""), "queued");
}

TEST(Service, SearchWithNoCompletedRunFailsWithItsOneLineCause) {
  // Every run crashes, so every candidate is quarantined and neither CCD
  // nor annealing (whose starting mapping then has no cost) has a mapping
  // to return: the job settles failed with the search's one-line error,
  // which names the cause and no source location.
  MappingService service({.store_dir = fresh_store("no-completed-run"),
                          .job_workers = 0});
  SimOptions crashing;
  crashing.faults.crash_prob = 1.0;
  for (const std::string algorithm : {"ccd", "anneal"}) {
    SearchOptions options = small_options(42);
    options.time_budget_s = 30.0;
    const std::string id = job_id_of(handle_json(
        service, submit_request(options, ",\"algorithm\":\"" + algorithm +
                                             "\",\"sim\":" +
                                             sim_options_to_json(crashing))));
    service.drain();
    const JsonValue status =
        handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}");
    EXPECT_EQ(status.str_or("status", ""), "failed") << algorithm;
    const std::string message = status.str_or("message", "");
    EXPECT_NE(message.find("no candidate completed a run"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(" quarantined after repeated transient faults"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
}

TEST(Service, RecoveryIndexesTheNewerOfTwoJobsSharingAFingerprint) {
  // Older stores may hold a failed job (persisted without a result) and
  // its retry under one fingerprint. Recovery answers for the newer one
  // and keeps the other listable.
  const std::string store = fresh_store("duplicate-fingerprint");
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    handle_json(service, submit_request(small_options(42)));
    service.drain();
  }
  fs::copy(store + "/jobs/1", store + "/jobs/2");
  fs::remove(store + "/jobs/1/result.json");
  MappingService revived({.store_dir = store, .job_workers = 0});
  const JsonValue again =
      handle_json(revived, submit_request(small_options(42)));
  EXPECT_EQ(job_id_of(again), "2");
  EXPECT_TRUE(again.bool_or("cached", false));
  EXPECT_EQ(status_of(revived, "1"), "queued");
  EXPECT_EQ(
      handle_json(revived, "{\"op\":\"jobs\"}").find("jobs")->array.size(),
      2u);
}

TEST(Service, RevivedJobCancelledWhileQueuedKeepsItsCheckpoint) {
  // A cancel keeps the job dir whatever state the job is in: here a job
  // cut mid-run (checkpoint on disk) is revived, cancelled again while
  // queued, and still resumes to the uninterrupted bytes.
  const std::string store = fresh_store("revive-cancel");
  SearchOptions options = small_options(42);
  options.rotations = 64;  // long enough to reliably cancel mid-run
  const std::string checkpoint_of_job_1 = store + "/jobs/1/checkpoint";
  std::string id;
  {
    MappingService service({.store_dir = store, .job_workers = 1});
    id = job_id_of(handle_json(service, submit_request(options)));
    ASSERT_EQ(id, "1");
    for (int i = 0; i < 3000 && !fs::exists(checkpoint_of_job_1); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fs::exists(checkpoint_of_job_1));
    handle_json(service, "{\"op\":\"cancel\",\"job\":" + id + "}");
    ASSERT_EQ(wait_for(service, id), "cancelled");
  }
  const std::string checkpoint = load_text(checkpoint_of_job_1);
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    ASSERT_EQ(job_id_of(handle_json(service, submit_request(options))), id);
    ASSERT_EQ(status_of(service, id), "queued");
    ASSERT_EQ(handle_json(service, "{\"op\":\"cancel\",\"job\":" + id + "}")
                  .str_or("status", ""),
              "cancelled");
    EXPECT_EQ(load_text(checkpoint_of_job_1), checkpoint);
  }
  MappingService revived({.store_dir = store, .job_workers = 0});
  EXPECT_EQ(status_of(revived, id), "cancelled");
  EXPECT_EQ(load_text(checkpoint_of_job_1), checkpoint);
  ASSERT_EQ(job_id_of(handle_json(revived, submit_request(options))), id);
  revived.drain();
  MappingService reference({.store_dir = fresh_store("revive-cancel-ref"),
                            .job_workers = 0});
  handle_json(reference, submit_request(options));
  reference.drain();
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id + "}"),
            reference.handle("{\"op\":\"result\",\"job\":" + id + "}"));
}

// ---------------------------------------------------------------------
// Protocol-level tests: a real ServiceServer on a Unix socket, attacked
// by raw misbehaving clients while well-behaved ones keep working.

/// A MappingService + ServiceServer pair with serve() on its own thread;
/// the destructor stops and joins, so a test that returns while rogue
/// connections are still open also exercises clean shutdown.
struct LiveServer {
  MappingService service;
  ServiceServer server;
  std::thread thread;

  LiveServer(const std::string& name, ServerConfig server_config,
             ServiceConfig service_config = {})
      : service([&] {
          service_config.store_dir = fresh_store("proto-" + name);
          return service_config;
        }()),
        server(service, socket_path(name), server_config),
        thread([this] { server.serve(); }) {}

  ~LiveServer() {
    server.stop();
    thread.join();
  }

  static std::string socket_path(const std::string& name) {
    const std::string path = process_temp_path(name + ".sock");
    fs::remove(path);
    return path;
  }
};

int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_bytes(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads exactly `n` bytes into `out`; false on EOF or `timeout_ms`.
bool recv_exact(int fd, std::size_t n, std::string& out,
                int timeout_ms = 5000) {
  out.clear();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (out.size() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char buffer[512];
    const ssize_t got =
        ::recv(fd, buffer, std::min(sizeof(buffer), n - out.size()), 0);
    if (got <= 0) return false;
    out.append(buffer, static_cast<std::size_t>(got));
  }
  return true;
}

/// True when the peer closes the connection within `timeout_ms`
/// (any data still in flight is drained and discarded).
bool recv_eof(int fd, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() <= deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char buffer[512];
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got == 0) return true;
    if (got < 0) return false;
  }
  return false;
}

/// Reads one response frame (header + payload) off a raw socket.
bool recv_frame(int fd, std::string& payload) {
  std::string header;
  if (!recv_exact(fd, kFrameHeaderBytes, header)) return false;
  const auto length = decode_frame_length(header);
  if (!length.has_value()) return false;
  return recv_exact(fd, *length, payload);
}

TEST(Protocol, GarbageLengthPrefixAnsweredThenClosed) {
  LiveServer live("garbage", {});
  const int fd = raw_connect(live.server.socket_path());
  ASSERT_GE(fd, 0);
  // A 4GB length prefix: structured too_large error, then disconnect.
  ASSERT_TRUE(send_bytes(fd, std::string("\xff\xff\xff\xff", 4)));
  std::string payload;
  ASSERT_TRUE(recv_frame(fd, payload));
  EXPECT_EQ(parse_json(payload).str_or("code", ""), "too_large");
  EXPECT_TRUE(recv_eof(fd, 5000));
  ::close(fd);

  // The daemon is unharmed: a well-behaved ping succeeds.
  const ServiceClient client(live.server.socket_path());
  EXPECT_EQ(parse_json(client.call("{\"op\":\"ping\"}")).str_or("type", ""),
            "pong");
}

TEST(Protocol, TruncatedFrameDisconnectLeavesDaemonServing) {
  LiveServer live("truncated", {});
  const int fd = raw_connect(live.server.socket_path());
  ASSERT_GE(fd, 0);
  // Header promises 100 bytes; the client sends 10 and vanishes.
  ASSERT_TRUE(send_bytes(fd, std::string("\x00\x00\x00\x64", 4)));
  ASSERT_TRUE(send_bytes(fd, "0123456789"));
  ::close(fd);

  const ServiceClient client(live.server.socket_path());
  EXPECT_EQ(parse_json(client.call("{\"op\":\"ping\"}")).str_or("type", ""),
            "pong");
}

TEST(Protocol, StalledClientHitsFrameDeadlineWhileOthersProceed) {
  // Slow-loris: a peer starts a frame and stalls. The frame deadline must
  // reap it — one dropped connection — while a concurrent well-behaved
  // client is served normally.
  LiveServer live("stalled", {.io_timeout_ms = 150, .idle_timeout_ms = 0});
  const int staller = raw_connect(live.server.socket_path());
  ASSERT_GE(staller, 0);
  ASSERT_TRUE(send_bytes(staller, std::string("\x00\x00", 2)));  // ...stall

  const ServiceClient client(live.server.socket_path());
  EXPECT_EQ(parse_json(client.call("{\"op\":\"ping\"}")).str_or("type", ""),
            "pong");

  EXPECT_TRUE(recv_eof(staller, 5000));
  ::close(staller);
  EXPECT_GE(metric_value(live.service.expose_metrics(),
                         "automap_service_io_timeouts_total"),
            1.0);
}

TEST(Protocol, IdleConnectionReapedBetweenFrames) {
  LiveServer live("idle", {.io_timeout_ms = 0, .idle_timeout_ms = 100});
  const int idler = raw_connect(live.server.socket_path());
  ASSERT_GE(idler, 0);
  // Sends nothing at all: reaped by the idle deadline.
  EXPECT_TRUE(recv_eof(idler, 5000));
  ::close(idler);
  EXPECT_GE(metric_value(live.service.expose_metrics(),
                         "automap_service_idle_reaped_total"),
            1.0);
  const ServiceClient client(live.server.socket_path());
  EXPECT_EQ(parse_json(client.call("{\"op\":\"ping\"}")).str_or("type", ""),
            "pong");
}

TEST(Protocol, StopUnblocksOpenConnections) {
  // Unbounded timeouts + a silent open connection: stop() must still wind
  // the server down promptly (the ctest timeout is the failure detector).
  int fd = -1;
  {
    LiveServer live("stop", {.io_timeout_ms = 0, .idle_timeout_ms = 0});
    fd = raw_connect(live.server.socket_path());
    ASSERT_GE(fd, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // ~LiveServer: stop() + join while the connection is still open
  EXPECT_TRUE(recv_eof(fd, 5000));
  ::close(fd);
}

/// A scripted one-frame-per-connection wire server: each accepted
/// connection gets the next canned response. Lets retry tests control
/// exactly what the "daemon" answers without standing up a real one.
struct ScriptedServer {
  std::string path;
  std::vector<std::string> responses;
  int listen_fd = -1;
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::thread thread;

  explicit ScriptedServer(std::string sock_path,
                          std::vector<std::string> canned)
      : path(std::move(sock_path)), responses(std::move(canned)) {
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ::unlink(path.c_str());
    ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr));
    ::listen(listen_fd, 8);
    const int flags = ::fcntl(listen_fd, F_GETFL, 0);
    ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);
    thread = std::thread([this] { serve(); });
  }

  void serve() {
    for (std::size_t next = 0; next < responses.size() && !stop;) {
      pollfd pfd{listen_fd, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      std::string header;
      std::string request;
      // `served` ticks *before* the response goes out, so once a client
      // has response N in hand the counter already reads N.
      if (recv_exact(fd, kFrameHeaderBytes, header) &&
          recv_exact(fd, *decode_frame_length(header), request)) {
        ++served;
        send_bytes(fd, encode_frame(responses[next]));
      }
      ::close(fd);
      ++next;
    }
  }

  ~ScriptedServer() {
    stop = true;
    thread.join();
    ::close(listen_fd);
    ::unlink(path.c_str());
  }
};

TEST(Protocol, ClientRetriesThroughOverloadToSuccess) {
  const std::string sock = LiveServer::socket_path("scripted-ok");
  ScriptedServer scripted(
      sock,
      {"{\"type\":\"error\",\"code\":\"overloaded\",\"message\":\"busy\","
       "\"retry_after_ms\":5}",
       "{\"type\":\"pong\",\"version\":1}"});
  const ServiceClient client(sock);
  const RetryPolicy policy{
      .max_attempts = 3, .base_ms = 1, .cap_ms = 4, .seed = 7};
  const std::string response =
      client.call_with_retry("{\"op\":\"ping\"}", policy);
  EXPECT_EQ(parse_json(response).str_or("type", ""), "pong");
  EXPECT_EQ(scripted.served.load(), 2);
}

TEST(Protocol, ClientSurfacesFinalOverloadedAfterExhaustion) {
  const std::string sock = LiveServer::socket_path("scripted-busy");
  const std::string busy =
      "{\"type\":\"error\",\"code\":\"overloaded\",\"message\":\"busy\","
      "\"retry_after_ms\":1}";
  ScriptedServer scripted(sock, {busy, busy});
  const ServiceClient client(sock);
  const RetryPolicy policy{
      .max_attempts = 2, .base_ms = 1, .cap_ms = 2, .seed = 7};
  // Attempts exhausted: the last overloaded response comes back verbatim
  // for the caller to inspect (not an exception).
  const std::string response =
      client.call_with_retry("{\"op\":\"ping\"}", policy);
  EXPECT_EQ(parse_json(response).str_or("code", ""), "overloaded");
  EXPECT_EQ(scripted.served.load(), 2);
}

TEST(Protocol, ClientThrowsUnreachableAfterRetries) {
  const ServiceClient client(
      LiveServer::socket_path("nobody-listening"));
  const RetryPolicy policy{
      .max_attempts = 3, .base_ms = 1, .cap_ms = 2, .seed = 7};
  EXPECT_THROW(
      { (void)client.call_with_retry("{\"op\":\"ping\"}", policy); },
      Unreachable);
}

}  // namespace
}  // namespace automap
