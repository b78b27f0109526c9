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
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/service/wire.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/json.hpp"

namespace automap {
namespace {

namespace fs = std::filesystem;

/// A fresh store directory per test; gtest's TempDir persists across the
/// binary's lifetime, so each test namespaces itself.
std::string fresh_store(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / ("automap-service-" + name))
          .string();
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
  local.threads = 1;
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
                          .eval_threads = 1,
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
                          .eval_threads = 1,
                          .job_workers = 0,
                          .max_request_bytes = 128});
  // Oversize request: a structured too_large error, not a disconnect.
  const JsonValue big = handle_json(
      service, "{\"op\":\"ping\",\"pad\":\"" + std::string(256, 'x') +
                   "\"}");
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

  // Job-keyed ops on a missing job are not_found.
  EXPECT_EQ(
      handle_json(service, "{\"op\":\"result\",\"job\":7}").str_or("code",
                                                                   ""),
      "not_found");
}

TEST(Service, ConcurrentJobsMatchOneShotSearch) {
  // Two jobs with different seeds run concurrently on two workers that
  // share one evaluation pool; each answer must be byte-identical to the
  // serial one-shot search path for its options.
  MappingService service({.store_dir = fresh_store("concurrent"),
                          .eval_threads = 4,
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
                          .eval_threads = 2,
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

  // A different seed is a different fingerprint: queued, not cached.
  const JsonValue third =
      handle_json(service, submit_request(small_options(43)));
  EXPECT_EQ(third.str_or("status", ""), "queued");
  EXPECT_FALSE(third.bool_or("cached", false));
}

TEST(Service, JournalStreamingReconstructsFileBytes) {
  const std::string store = fresh_store("journal");
  MappingService service(
      {.store_dir = store, .eval_threads = 1, .job_workers = 0});
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
        {.store_dir = store, .eval_threads = 2, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
    payload = service.handle("{\"op\":\"result\",\"job\":" + id + "}");
    ASSERT_EQ(parse_json(payload).str_or("type", ""), "result");
  }
  // A new daemon on the same store serves the identical bytes without
  // running anything (zero simulator runs since construction).
  MappingService revived(
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
        {.store_dir = store, .eval_threads = 2, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
    payload = service.handle("{\"op\":\"result\",\"job\":" + id + "}");
  }
  // Simulate a daemon killed after checkpointing but before the result
  // was persisted: the checkpoint survives, the result does not.
  ASSERT_TRUE(fs::exists(store + "/jobs/" + id + "/checkpoint"));
  fs::remove(store + "/jobs/" + id + "/result.json");

  MappingService revived(
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
  EXPECT_EQ(handle_json(revived, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("status", ""),
            "queued");
  revived.drain();
  // Resuming from the checkpoint lands on the byte-identical result.
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id + "}"),
            payload);
}

TEST(Service, CancelQueuedJobPurgesItsStoreDir) {
  const std::string store = fresh_store("cancel");
  MappingService service(
      {.store_dir = store, .eval_threads = 1, .job_workers = 0});
  const std::string id =
      job_id_of(handle_json(service, submit_request(small_options(9))));
  ASSERT_TRUE(fs::exists(store + "/jobs/" + id));
  const JsonValue cancelled =
      handle_json(service, "{\"op\":\"cancel\",\"job\":" + id + "}");
  EXPECT_EQ(cancelled.str_or("type", ""), "cancelled");
  EXPECT_EQ(handle_json(service, "{\"op\":\"status\",\"job\":" + id + "}")
                .str_or("status", ""),
            "cancelled");
  // The store dir is gone (tombstone and all) and draining runs nothing.
  EXPECT_FALSE(fs::exists(store + "/jobs/" + id));
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

TEST(Service, RestartCleansTombstonedDirs) {
  // A "purge" tombstone marks a deletion that did not finish (e.g. the
  // daemon died mid-remove_all). Restart scanning completes the cleanup
  // instead of reviving the half-deleted job.
  const std::string store = fresh_store("tombstone");
  std::string id;
  {
    MappingService service(
        {.store_dir = store, .eval_threads = 1, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(small_options(3))));
  }
  const std::string dir = store + "/jobs/" + id;
  ASSERT_TRUE(fs::exists(dir + "/request.json"));
  save_text(dir + "/cancelled", "purge\n");

  MappingService revived(
      {.store_dir = store, .eval_threads = 1, .job_workers = 0});
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
        {.store_dir = store, .eval_threads = 2, .job_workers = 1});
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
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
                            .eval_threads = 2,
                            .job_workers = 0});
  const std::string ref_id =
      job_id_of(handle_json(reference, submit_request(options)));
  reference.drain();
  ASSERT_EQ(ref_id, id);  // both stores number jobs from 1
  EXPECT_EQ(resumed,
            reference.handle("{\"op\":\"result\",\"job\":" + ref_id + "}"));
}

TEST(Service, ResultCacheEvictsLeastRecentlyServed) {
  const std::string store = fresh_store("lru");
  std::string payload_1;
  std::string id_1;
  {
    MappingService service({.store_dir = store,
                            .eval_threads = 2,
                            .job_workers = 0,
                            .max_result_cache = 2});
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
                          .eval_threads = 2,
                          .job_workers = 0,
                          .max_result_cache = 2});
  EXPECT_EQ(revived.handle("{\"op\":\"result\",\"job\":" + id_1 + "}"),
            payload_1);
}

/// Bytes of regular files under `dir` — the soak assertion's measure.
std::size_t tree_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it)
    if (it->is_regular_file()) total += it->file_size();
  return total;
}

TEST(Service, StoreByteBudgetHoldsAcrossManyJobs) {
  // Calibrate: one finished job's dir size sets the budget scale, so the
  // test does not hard-code file sizes.
  std::size_t one_job = 0;
  {
    const std::string probe_store = fresh_store("soakprobe");
    MappingService probe(
        {.store_dir = probe_store, .eval_threads = 2, .job_workers = 0});
    handle_json(probe, submit_request(small_options(100)));
    probe.drain();
    one_job = tree_bytes(probe_store + "/jobs");
    ASSERT_GT(one_job, 0u);
  }

  const std::string store = fresh_store("soak");
  const std::size_t budget = 3 * one_job + one_job / 2;
  MappingService service({.store_dir = store,
                          .eval_threads = 2,
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

TEST(Service, EvalCacheBucketsEvictLeastRecentlyServed) {
  const std::string store = fresh_store("evalevict");
  MappingService service({.store_dir = store,
                          .eval_threads = 2,
                          .job_workers = 0,
                          .max_eval_cache = 1});
  // Two different seeds measure under two different buckets; with a
  // one-bucket budget the older one is evicted.
  handle_json(service,
              submit_request(small_options(42), ",\"reuse_measurements\":true"));
  service.drain();
  handle_json(service,
              submit_request(small_options(43), ",\"reuse_measurements\":true"));
  service.drain();
  std::size_t bucket_files = 0;
  for (auto it = fs::directory_iterator(store + "/cache");
       it != fs::directory_iterator(); ++it)
    if (it->is_regular_file()) ++bucket_files;
  EXPECT_EQ(bucket_files, 1u);
  std::string exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_evictions_total"),
            1.0);
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_entries"),
            1.0);

  // Seed 42's bucket is the one that went: a new job in that measurement
  // configuration records an eval-cache miss and recomputes fine.
  SearchOptions more = small_options(42);
  more.rotations = 3;  // different fingerprint, same bucket
  const std::string id = job_id_of(handle_json(
      service, submit_request(more, ",\"reuse_measurements\":true")));
  service.drain();
  EXPECT_EQ(wait_for(service, id), "done");
  exposition = service.expose_metrics();
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_misses_total"),
            3.0);  // both cold starts above, plus this one
  EXPECT_EQ(metric_value(exposition,
                         "automap_service_eval_cache_seeded_total"),
            0.0);
}

TEST(Service, EqualPriorityJobsShareThePoolAndStayByteIdentical) {
  // Two equal-priority jobs whose batches interleave deficit-round-robin
  // on the shared pool: fair-share scheduling must not leak into results —
  // each answer stays byte-identical to the serial one-shot search.
  MappingService service({.store_dir = fresh_store("fairshare"),
                          .eval_threads = 4,
                          .job_workers = 2});
  const SearchOptions a = small_options(7);
  const SearchOptions b = small_options(1234);
  const std::string id_a =
      job_id_of(handle_json(service, submit_request(a)));
  const std::string id_b =
      job_id_of(handle_json(service, submit_request(b)));
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

TEST(Service, EvalCacheSeedsRepeatMeasurements) {
  // Opt-in measurement reuse: the first job fills a bucket; a second job
  // over the same measurement configuration (different rotation budget,
  // so a different fingerprint) seeds from it and reports evaluator
  // cache hits.
  MappingService service({.store_dir = fresh_store("evalcache"),
                          .eval_threads = 2,
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
                          .eval_threads = 1,
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

TEST(Service, MaxInflightGatesRevivalOfCancelledJobs) {
  MappingService service({.store_dir = fresh_store("overload-revive"),
                          .eval_threads = 1,
                          .job_workers = 0,
                          .max_inflight = 1});
  const SearchOptions a = small_options(1);
  const std::string id_a =
      job_id_of(handle_json(service, submit_request(a)));
  handle_json(service, "{\"op\":\"cancel\",\"job\":" + id_a + "}");
  // The slot freed by the cancel goes to a new job...
  ASSERT_EQ(handle_json(service, submit_request(small_options(2)))
                .str_or("status", ""),
            "queued");
  // ...so reviving the cancelled job must pass admission like any other
  // enqueue — and is refused at capacity.
  EXPECT_EQ(handle_json(service, submit_request(a)).str_or("code", ""),
            "overloaded");
  service.drain();
  const JsonValue revived = handle_json(service, submit_request(a));
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
      {.store_dir = store, .eval_threads = 1, .job_workers = 0});
  const SearchOptions options = small_options(42);
  const std::string id = job_id_of(handle_json(
      service, submit_request(options, ",\"deadline_ms\":25")));
  // No workers: the job sits queued until the deadline wheel fires.
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
                          .eval_threads = 1,
                          .job_workers = 0});
  // 1e300 is valid JSON; accepting it would make the int64 cast and the
  // steady_clock addition inside the wheel undefined. It must bounce as a
  // bad_request, not crash or arm anything.
  const JsonValue refused = handle_json(
      service, submit_request(small_options(7), ",\"deadline_ms\":1e300"));
  EXPECT_EQ(refused.str_or("type", ""), "error");
  EXPECT_EQ(refused.str_or("code", ""), "bad_request");
  EXPECT_TRUE(
      handle_json(service, "{\"op\":\"jobs\"}").find("jobs")->array.empty());
}

TEST(Service, MistypedSubmitFieldsAreBadRequests) {
  MappingService service({.store_dir = fresh_store("strict-submit"),
                          .eval_threads = 1,
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
                          .eval_threads = 1,
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

TEST(Service, RevivalPersistsTheAcceptedDeadline) {
  const std::string store = fresh_store("deadline-revive-persist");
  MappingService service(
      {.store_dir = store, .eval_threads = 1, .job_workers = 0});
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
      {.store_dir = store, .eval_threads = 2, .job_workers = 1});
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
        {.store_dir = store, .eval_threads = 1, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(small_options(9))));
  }
  // Garble the persisted request: the trailer no longer matches.
  const std::string dir = store + "/jobs/" + id;
  save_text(dir + "/request.json", "{\"torn\":");

  // Recovery quarantines the whole job dir and starts clean — a corrupt
  // store entry must never wedge daemon startup.
  MappingService revived(
      {.store_dir = store, .eval_threads = 1, .job_workers = 0});
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
        {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
        {.store_dir = store, .eval_threads = 2, .job_workers = 0});
    id = job_id_of(handle_json(service, submit_request(options)));
    service.drain();
  }
  // Daemon "died" before the result landed, and the checkpoint is torn.
  const std::string dir = store + "/jobs/" + id;
  fs::remove(dir + "/result.json");
  const std::string checkpoint = load_text(dir + "/checkpoint");
  save_text(dir + "/checkpoint", checkpoint.substr(0, checkpoint.size() / 2));

  MappingService revived(
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
                          .eval_threads = 1,
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
  // Mirrors ResultCacheEvictsLeastRecentlyServed: with a two-entry cache,
  // serving job 1 makes job 2 the LRU victim of job 3's arrival. The
  // recorder keeps answering for the evicted job and marks the eviction.
  MappingService service({.store_dir = fresh_store("trace-evict"),
                          .eval_threads = 2,
                          .job_workers = 0,
                          .max_result_cache = 2});
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
        {.store_dir = store, .eval_threads = 2, .job_workers = 0});
    id = job_id_of(handle_json(
        service, submit_request(options, ",\"deadline_ms\":25")));
    ASSERT_EQ(wait_for(service, id), "cancelled");
  }

  // The restored timeline replays the dead daemon's spans.
  MappingService revived(
      {.store_dir = store, .eval_threads = 2, .job_workers = 0});
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
                          .eval_threads = 1,
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

TEST(Service, StatsQuantilesMatchHistogramUnderFakeClock) {
  // A fake clock advancing 100ms per reading makes every latency exact:
  // handle() reads it twice per request (start, end) and `ping` never
  // touches the clock in between, so each ping observes exactly 0.1s.
  auto tick = std::make_shared<double>(0.0);
  ServiceConfig config;
  config.store_dir = fresh_store("fake-clock");
  config.eval_threads = 1;
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
          if (service_config.eval_threads == 0)
            service_config.eval_threads = 2;
          return service_config;
        }()),
        server(service, socket_path(name), server_config),
        thread([this] { server.serve(); }) {}

  ~LiveServer() {
    server.stop();
    thread.join();
  }

  static std::string socket_path(const std::string& name) {
    const std::string path =
        (fs::path(::testing::TempDir()) / ("automap-" + name + ".sock"))
            .string();
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
