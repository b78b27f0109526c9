// Golden bytes of every kind of JSON document the program writes: a
// journaled search and its checkpoint log, the canonical options codecs,
// the metric snapshots, and every answer and store file of a scripted
// daemon session. Each is pinned as the FNV-1a 64 hash (`fnv1a64`) of its
// bytes, recorded from a known-good build.
//
// The other byte checks compare two runs of one build (pruning on and
// off, resume, daemon and one-shot), so a change to how every writer
// spells a number or a separator passes them all. These pins compare
// against another build: a refactor of a writer must leave them as they
// are. A deliberate change to a document re-pins by pasting the "actual"
// value its failure message prints.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "src/apps/registry.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/report/journal.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/search.hpp"
#include "src/service/service.hpp"
#include "src/service/wire.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"
#include "tests/process_temp_dir.hpp"

namespace automap {
namespace {

namespace fs = std::filesystem;

/// Expects `bytes` to hash to `pin`; names the document on failure.
void expect_pinned(const std::string& what, const std::string& bytes,
                   const char* pin) {
  EXPECT_EQ(hex_u64(fnv1a64(bytes)), pin)
      << what << " changed; its bytes now read:\n"
      << bytes.substr(0, 2000);
}

/// One of the registry's documents (`snapshot_json`, `quantiles_json`)
/// written on its own.
std::string render(const MetricsRegistry& metrics,
                   void (MetricsRegistry::*write)(JsonWriter&) const) {
  JsonWriter out;
  (metrics.*write)(out);
  return out.take();
}

TEST(DocumentGolden, JournaledCcdSearchAndItsCheckpointLog) {
  // Stencil step 0 on shepard(1), rotations 2, repeats 3, seed 42, a
  // metric snapshot every 10 candidates and a checkpoint log on disk.
  const BenchmarkApp app = make_app_by_name("stencil", 1, 0);
  const MachineModel machine = make_shepard(1);
  const Simulator sim(machine, app.graph, {});
  const std::string checkpoint = process_temp_path("golden-checkpoint");
  Journal journal;
  MetricsRegistry metrics;
  const SearchOptions options{.rotations = 2,
                              .repeats = 3,
                              .seed = 42,
                              .export_profiles_db = false,
                              .checkpoint_path = checkpoint,
                              .journal = &journal,
                              .metrics = &metrics,
                              .journal_snapshot_every = 10};
  (void)run_ccd(sim, options);
  expect_pinned("the journal", journal.text(), "b1fa7d953ec42b94");
  expect_pinned("the checkpoint log", load_text(checkpoint),
                "669f1260e72d5a68");
  expect_pinned("the deterministic metric snapshot",
                render(metrics, &MetricsRegistry::snapshot_json),
                "d1be47e5fa20e282");
}

TEST(DocumentGolden, OptionsCodecs) {
  expect_pinned("default search options",
                search_options_to_json(SearchOptions{}), "5133f18f9464904d");
  expect_pinned("default sim options", sim_options_to_json(SimOptions{}),
                "fefcbc75564955a6");
  // Frozen tasks 3 and 0, an infinite budget, a fractional backoff and
  // every fault knob set.
  SearchOptions search{.rotations = 4, .repeats = 5, .seed = 1ULL << 63};
  search.time_budget_s = std::numeric_limits<double>::infinity();
  search.frozen_tasks = {TaskId(3), TaskId(0)};
  search.resilience.retry_backoff_s = 0.1;
  search.resilience.aggregation = Aggregation::kMedian;
  expect_pinned("search options with frozen tasks and no budget",
                search_options_to_json(search), "31188e7bc6638a47");
  SimOptions sim;
  sim.noise_sigma = 1.0 / 3.0;
  sim.faults.crash_prob = 0.05;
  sim.faults.straggler_prob = 1e-7;
  sim.faults.straggler_factor = 2.5;
  sim.faults.mem_pressure_prob = 0.25;
  sim.faults.mem_pressure_headroom = 0.75;
  sim.faults.copy_fault_prob = 0.125;
  expect_pinned("sim options with faults", sim_options_to_json(sim),
                "18a093e0ce6de876");
}

TEST(DocumentGolden, MetricSnapshotAndQuantiles) {
  // Counters, finite and non-finite gauges, a labeled name that needs
  // escaping, an instrument the snapshot leaves out, and two histograms
  // with observations (one empty histogram is left out of the quantiles).
  MetricsRegistry metrics;
  metrics.counter("a_total", "a")->inc(12345678901ULL);
  metrics.gauge("b", "b")->set(0.1);
  metrics.gauge("c", "c")->set(-std::numeric_limits<double>::infinity());
  metrics.gauge("d", "d")->set(std::nan(""));
  metrics.counter("e_total{op=\"x\\y\"}", "e")->inc(3);
  metrics.counter("f_total", "f", /*deterministic=*/false)->inc(9);
  Histogram* h = metrics.histogram("g_seconds{op=\"submit\"}", "g",
                                   {0.001, 0.01, 0.1, 1.0});
  for (const double v : {0.0005, 0.004, 0.004, 0.07, 3.0}) h->observe(v);
  metrics.histogram("empty_seconds", "empty", {1.0});
  metrics.histogram("h_bytes", "h", {10, 100})->observe(42);
  expect_pinned("snapshot_json",
                render(metrics, &MetricsRegistry::snapshot_json),
                "0d29ad3fef6975a9");
  expect_pinned("quantiles_json",
                render(metrics, &MetricsRegistry::quantiles_json),
                "50730934fe70e53f");
}

/// A service clock that only moves when the test says so.
struct ManualClock {
  std::shared_ptr<double> now = std::make_shared<double>(1000.25);
  std::function<double()> fn() const {
    return [now = now] { return *now; };
  }
  void set(double ms) const { *now = ms; }
};

/// `{"op":<op>,"job":<job>}`.
std::string job_op(const std::string& op, int job) {
  return "{\"op\":\"" + op + "\",\"job\":" + std::to_string(job) + "}";
}

/// A submit of a CCD search on `app` step 0 over shepard(1).
std::string submit(const std::string& app, std::uint64_t seed, int rotations,
                   const std::string& extra) {
  const SearchOptions options{
      .rotations = rotations, .repeats = 3, .seed = seed};
  return "{\"op\":\"submit\",\"machine\":\"" +
         json_escape(machine_to_string(make_shepard(1))) +
         "\",\"graph\":\"" +
         json_escape(
             task_graph_to_string(make_app_by_name(app, 1, 0).graph)) +
         "\",\"options\":" + search_options_to_json(options) + extra + "}";
}

TEST(DocumentGolden, DaemonSessionAnswersAndSpans) {
  // One daemon, no job workers (jobs run on drain()), a manual clock and
  // a queue of at most one job. Job 1 (Stencil step 0 on shepard(1), two
  // rotations, a journal) runs to the end; job 2 is cancelled while
  // queued; job 3 (HTR step 0, 64 rotations) fills the queue.
  const std::string store = process_temp_path("golden-store");
  fs::remove_all(store);
  const ManualClock clock;
  MappingService service({.store_dir = store,
                          .job_workers = 0,
                          .max_queued_jobs = 1,
                          .clock_ms = clock.fn()});
  const auto answer = [&](const std::string& what, const std::string& request,
                          const char* pin) {
    expect_pinned(what, service.handle(request), pin);
  };
  const std::string first =
      submit("stencil", 42, 2, ",\"journal\":true,\"priority\":1");
  answer("pong", "{\"op\":\"ping\"}", "217acda810982766");
  answer("submitted", first, "18b865b51dea47d6");
  answer("status of a queued job", job_op("status", 1), "f3d8b7da9409d71f");
  answer("result of a queued job", job_op("result", 1), "155515a09e9deab3");
  clock.set(2500.125);
  service.drain();
  clock.set(4000.5);
  answer("cached submitted", first, "6300d3bc89db8ca6");
  answer("status with spans", job_op("status", 1), "10f6839052126faf");
  answer("result", job_op("result", 1), "0b03bd5e3ec94f1d");
  answer("journal", job_op("journal", 1), "14a0c07a98e3946e");
  answer("journal after a cursor",
         "{\"op\":\"journal\",\"job\":1,\"after\":40}", "411ea379167a0dc8");
  answer("trace", job_op("trace", 1), "52d6c1f745fcfe58");
  answer("submitted without a journal", submit("stencil", 7, 2, ""),
         "79d3944466a0f347");
  answer("journal of a job without one", job_op("journal", 2),
         "6b93968616284a04");
  clock.set(4100.75);
  answer("cancelled", job_op("cancel", 2), "e1b6f4a1afdbc668");
  answer("cancel of a cancelled job", job_op("cancel", 2),
         "fe08583b9eb88c18");
  answer("status of a cancelled job", job_op("status", 2), "9dabb11cb1cf7818");
  answer("submitted into the last queue slot", submit("htr", 8, 64, ""),
         "d8b68ae29334984c");
  answer("overloaded", submit("stencil", 9, 1, ""), "f772fac59f8a5e3f");
  answer("jobs", "{\"op\":\"jobs\"}", "defde237cac0e18c");
  answer("unknown_op", "{\"op\":\"frobnicate\"}", "ef27a7e00e7145cd");
  answer("not_found", job_op("status", 99), "3550b9c2573134b7");
  answer("bad_request", "{nope", "0312f25e79f18ffd");
  answer("bad_request for a mistyped field",
         "{\"op\":\"status\",\"job\":\"x\"}", "f743addb6038d3b3");
  answer("too_large",
         "{\"op\":\"ping\",\"pad\":\"" +
             std::string(kDefaultMaxFrameBytes, 'x') + "\"}",
         "9e144f33c1f7669e");
  answer("stats", "{\"op\":\"stats\"}", "836e2be1e8b1b18d");
  expect_pinned("job 1's spans.json", load_text(store + "/jobs/1/spans.json"),
                "f2ba5cbad12df5e4");
  expect_pinned("job 2's spans.json", load_text(store + "/jobs/2/spans.json"),
                "9ec5d9c126c2c96c");
  expect_pinned("job 1's result.json",
                load_text(store + "/jobs/1/result.json"), "ecc4289c05c355c5");
  // The one code no request of this session can reach: an exception that
  // is not an Error. Its message is free text, so it is escaped.
  expect_pinned("internal",
                wire_error("internal", "a \"quoted\"\tpath\n\x01 \xc3\xa9"),
                "3debd78352b814a0");

  // Last, as its search stops wherever the cancel lands: job 3 runs on
  // another thread and is cancelled as soon as it leaves the queue.
  std::thread runner([&] { service.drain(); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.handle(job_op("status", 3))
                 .find("\"status\":\"queued\"") != std::string::npos &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  answer("cancelling", job_op("cancel", 3), "00f24ea4d5f64dd0");
  runner.join();
  fs::remove_all(store);
}

}  // namespace
}  // namespace automap
