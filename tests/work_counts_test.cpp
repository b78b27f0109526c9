// Deterministic work counts of fixed CCD searches, gated like a benchmark.
//
// Wall time drifts with the host; counts do not. This binary runs the
// searches perfbench's `search_mean` and `search_robust` workloads time
// (HTR and Pennant on an exported shepard(1) machine, step 0, the paper
// protocol, mean and median aggregation) and checks:
//   * the search counters (suggested, evaluated, cache hits) and the
//     simulator counters (plans, runs, censored runs, events) equal
//     recorded pins exactly — a change that moves one re-records it and
//     says why in CHANGES.md;
//   * the heap allocations of each `automap_optimize` call stay at or
//     below a recorded ceiling (the count after the change that set it,
//     rounded up to the next 1,000, which absorbs libstdc++ differences);
//   * one copy of a starting mapping allocates at most three times (the
//     task decisions, the argument offsets and the flat memory lists);
//   * a mapping daemon restarted on a store of finished jobs (perfbench's
//     `service_cached` requests) validates each request on its first
//     resubmission, and answers every later one from the result cache
//     within a recorded allocation ceiling: decoding and fingerprinting
//     the request, never parsing its machine or graph again.
// Allocations are counted by the replacement global operator new below,
// which is linked into this test binary only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/automap/automap.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/search/search.hpp"
#include "src/service/service.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"
#include "tests/process_temp_dir.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// The nothrow forms are replaced too (std::stable_sort's buffer uses
// them): a sanitizer runtime supplies its own, and a block it allocates
// must not reach the free() below.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace automap {
namespace {

/// perfbench's inputs: the machine and the step-0 graph written to text
/// and read back, a registry on SimOptions::metrics, default noise.
struct Inputs {
  explicit Inputs(const std::string& app)
      : machine(machine_from_string(machine_to_string(make_shepard(1)))),
        graph(task_graph_from_string(
            task_graph_to_string(make_app_by_name(app, 1, 0).graph))),
        sim(machine, graph, SimOptions{.metrics = &metrics}) {}

  [[nodiscard]] std::uint64_t counter(const char* name) {
    return metrics.counter(name, "", /*deterministic=*/false)->value();
  }

  MetricsRegistry metrics;
  MachineModel machine;
  TaskGraph graph;
  Simulator sim;
};

/// perfbench's search options: 5 rotations, 7 repeats, top-5 finalists
/// re-run 31 times, pruning on, no profiles export; `search_robust` folds
/// the repeats by their median.
SearchOptions paper_protocol(std::uint64_t seed, Aggregation aggregation) {
  SearchOptions options{.rotations = 5,
                        .repeats = 7,
                        .seed = seed,
                        .top_k = 5,
                        .final_repeats = 31,
                        .prune_candidates = true,
                        .export_profiles_db = false};
  options.resilience.aggregation = aggregation;
  return options;
}

struct Pin {
  const char* app;
  Aggregation aggregation;
  std::uint64_t seed;
  std::uint64_t suggested;
  std::uint64_t evaluated;
  std::uint64_t cache_hits;
  /// Simulator::begin_runs calls (automap_sim_plans_total).
  std::uint64_t sim_plans;
  std::uint64_t sim_runs;
  /// Runs the simulator abandoned at their bound.
  std::uint64_t sim_censored;
  std::uint64_t sim_events;
  /// Ceiling on the heap allocations of one automap_optimize call.
  std::uint64_t max_allocations;
};

// The search and simulator counts were recorded before the flat Mapping
// and the flag work lists of the co-location fixed point, and did not move
// with them; the allocation ceilings were recorded after (HTR 15,616 /
// 15,365 / 15,101, Pennant 19,929 / 19,949 / 19,910 with GCC 12's
// libstdc++). The plan counts (one per evaluated candidate, finalist and
// rotation's task ordering) were recorded when the counter was added. The
// median rows were recorded when the median began to race the censor
// threshold (allocations HTR 14,813 / 14,595 / 15,295, Pennant 19,865 /
// 19,850 / 19,713): its runs reuse one buffer, so a repeat allocates
// nothing. The mean rows' plans, runs and events were re-recorded when the
// mean's censor line was calibrated to the start mapping's measured
// spread (allocations HTR 15,642 / 15,374 / 15,110, Pennant 19,938 /
// 19,958 / 19,919): one more plan and `repeats` more runs measure the
// start, and far fewer runs race to the cap. Every ceiling was re-recorded
// when CCD began to build each proposal in one reused mapping, with
// reused co-location work lists and a profiles database that reuses an
// entry's storage; no search or simulator count moved (mean rows HTR
// 4,776 / 4,508 / 4,244, Pennant 5,825 / 5,845 / 5,806; median rows HTR
// 3,946 / 3,728 / 4,428, Pennant 5,751 / 5,736 / 5,599).
// clang-format off
constexpr Pin kPins[] = {
    {"htr", Aggregation::kMean, 1, 1721, 823, 898, 834, 3278, 691, 981641, 5000},
    {"htr", Aggregation::kMean, 2, 1721, 774, 947, 785, 3368, 659, 971966, 5000},
    {"htr", Aggregation::kMean, 3, 1721, 718, 1003, 729, 2860, 616, 815257, 5000},
    {"pennant", Aggregation::kMean, 1, 2251, 1062, 1189, 1073, 4255, 830, 1929630, 6000},
    {"pennant", Aggregation::kMean, 2, 2251, 1098, 1153, 1109, 4202, 907, 1861494, 6000},
    {"pennant", Aggregation::kMean, 3, 2251, 1089, 1162, 1100, 4184, 899, 1909004, 6000},
    {"htr", Aggregation::kMedian, 1, 1721, 644, 1077, 654, 3274, 2326, 1020419, 4000},
    {"htr", Aggregation::kMedian, 2, 1721, 600, 1121, 610, 3017, 2163, 800688, 4000},
    {"htr", Aggregation::kMedian, 3, 1721, 753, 968, 763, 3801, 2702, 1160287, 5000},
    {"pennant", Aggregation::kMedian, 1, 2251, 1066, 1185, 1076, 5339, 3697, 2238063, 6000},
    {"pennant", Aggregation::kMedian, 2, 2251, 1065, 1186, 1075, 5312, 3640, 2240015, 6000},
    {"pennant", Aggregation::kMedian, 3, 2251, 1033, 1218, 1043, 5140, 3522, 2170945, 6000},
};
// clang-format on

TEST(WorkCounts, CcdSearchesMatchPins) {
  for (const Pin& pin : kPins) {
    const char* fold =
        pin.aggregation == Aggregation::kMean ? "kMean" : "kMedian";
    SCOPED_TRACE(std::string(pin.app) + " " + fold + " seed " +
                 std::to_string(pin.seed));
    Inputs in(pin.app);
    const std::uint64_t plans = in.counter("automap_sim_plans_total");
    const std::uint64_t runs = in.counter("automap_sim_runs_total");
    const std::uint64_t censored =
        in.counter("automap_sim_runs_censored_total");
    const std::uint64_t events = in.counter("automap_sim_events_total");
    const std::uint64_t allocations = g_allocations.load();
    const SearchResult result =
        automap_optimize(in.sim, SearchAlgorithm::kCcd,
                         paper_protocol(pin.seed, pin.aggregation));
    const std::uint64_t allocated = g_allocations.load() - allocations;

    const Pin actual{
        pin.app,
        pin.aggregation,
        pin.seed,
        result.stats.suggested,
        result.stats.evaluated,
        result.stats.cache_hits,
        in.counter("automap_sim_plans_total") - plans,
        in.counter("automap_sim_runs_total") - runs,
        in.counter("automap_sim_runs_censored_total") - censored,
        in.counter("automap_sim_events_total") - events,
        pin.max_allocations};
    EXPECT_EQ(actual.suggested, pin.suggested);
    EXPECT_EQ(actual.evaluated, pin.evaluated);
    EXPECT_EQ(actual.cache_hits, pin.cache_hits);
    EXPECT_EQ(actual.sim_plans, pin.sim_plans);
    EXPECT_EQ(actual.sim_runs, pin.sim_runs);
    EXPECT_EQ(actual.sim_censored, pin.sim_censored);
    EXPECT_EQ(actual.sim_events, pin.sim_events);
    EXPECT_LE(allocated, pin.max_allocations);
    // The row as it would be pinned, and the allocations it counted.
    std::printf(
        "{\"%s\", Aggregation::%s, %llu, %llu, %llu, %llu, %llu, %llu, "
        "%llu, %llu, ...}: allocations %llu\n",
        actual.app, fold, static_cast<unsigned long long>(actual.seed),
        static_cast<unsigned long long>(actual.suggested),
        static_cast<unsigned long long>(actual.evaluated),
        static_cast<unsigned long long>(actual.cache_hits),
        static_cast<unsigned long long>(actual.sim_plans),
        static_cast<unsigned long long>(actual.sim_runs),
        static_cast<unsigned long long>(actual.sim_censored),
        static_cast<unsigned long long>(actual.sim_events),
        static_cast<unsigned long long>(allocated));
  }
}

TEST(WorkCounts, MappingCopyAllocatesAtMostThreeTimes) {
  for (const char* app : {"htr", "pennant"}) {
    SCOPED_TRACE(app);
    const MachineModel machine = make_shepard(1);
    const TaskGraph graph = make_app_by_name(app, 1, 0).graph;
    const Mapping start = search_starting_point(graph, machine);
    const std::uint64_t allocations = g_allocations.load();
    const Mapping copy = start;
    const std::uint64_t allocated = g_allocations.load() - allocations;
    EXPECT_EQ(copy, start);
    EXPECT_LE(allocated, 3u);
  }
}

/// perfbench's `service_cached` request for one app: the exported
/// shepard(1) machine and step-0 graph, one CCD rotation, no profiles
/// export.
std::string cached_request(const char* app) {
  const SearchOptions options{
      .rotations = 1, .seed = 1, .export_profiles_db = false};
  return "{\"op\":\"submit\",\"machine\":\"" +
         json_escape(machine_to_string(make_shepard(1))) +
         "\",\"graph\":\"" +
         json_escape(task_graph_to_string(make_app_by_name(app, 1, 0).graph)) +
         "\",\"options\":" + search_options_to_json(options) + "}";
}

double result_cache_hits(MappingService& service) {
  std::istringstream is(service.expose_metrics());
  const std::string name = "automap_service_result_cache_hits_total ";
  for (std::string line; std::getline(is, line);)
    if (line.rfind(name, 0) == 0) return std::stod(line.substr(name.size()));
  return -1;
}

// Ceiling on the allocations of one cached resubmission of a validated
// request, recorded after the change that set it (Circuit 51, Stencil 52,
// HTR 54 with GCC 12's libstdc++) and rounded up to the next 100. Since
// strings decode in runs and the machine and graph texts move out of the
// decoded request, the counts read Circuit 49, Stencil 49, HTR 51; since
// the two options codecs and the answer are each written into one string
// by the JSON writer, Circuit 36, Stencil 36, HTR 38. A resubmission that
// parses the machine and graph allocates far more (Circuit 377, Stencil
// 457, HTR 1,122 before that change).
constexpr std::uint64_t kMaxCachedResubmitAllocations = 100;

TEST(WorkCounts, CachedResubmitsValidateOnceThenStayUnderTheirCeiling) {
  const std::string store = process_temp_path("work-counts");
  std::filesystem::remove_all(store);
  std::vector<std::string> requests;
  for (const char* app : {"circuit", "stencil", "htr"})
    requests.push_back(cached_request(app));
  {
    MappingService service({.store_dir = store, .job_workers = 0});
    for (const std::string& request : requests) (void)service.handle(request);
    service.drain();
  }

  // A restarted daemon recovers the finished jobs unvalidated.
  MappingService service({.store_dir = store, .job_workers = 0});
  double hits = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    for (int resubmit = 0; resubmit < 3; ++resubmit) {
      SCOPED_TRACE("request " + std::to_string(r) + " resubmit " +
                   std::to_string(resubmit));
      const std::uint64_t allocations = g_allocations.load();
      const std::string answer = service.handle(requests[r]);
      const std::uint64_t allocated = g_allocations.load() - allocations;
      EXPECT_EQ(answer, "{\"type\":\"submitted\",\"job\":" +
                            std::to_string(r + 1) +
                            ",\"status\":\"done\",\"cached\":true}");
      EXPECT_EQ(result_cache_hits(service), ++hits);
      // The first resubmission validates; the later ones must not.
      if (resubmit == 0)
        EXPECT_GT(allocated, kMaxCachedResubmitAllocations);
      else
        EXPECT_LE(allocated, kMaxCachedResubmitAllocations);
      std::printf("request %zu resubmit %d: allocations %llu\n", r, resubmit,
                  static_cast<unsigned long long>(allocated));
    }
  }
  std::filesystem::remove_all(store);
}

}  // namespace
}  // namespace automap
