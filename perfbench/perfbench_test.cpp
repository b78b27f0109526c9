// Tests of the benchmark's own guards: op lists are pure functions of
// (workload, seed), timed phases end only when every op has run,
// percentiles need 10 samples beyond them, and metric names are valid and
// match BENCHMARK.json.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "src/io/text_io.hpp"
#include "src/support/json.hpp"

namespace perfbench {
namespace {

TEST(Ops, ListIsAPureFunctionOfWorkloadAndSeed) {
  for (const Workload w : all_workloads()) {
    const std::vector<Op> ops = make_ops(w, 7, 20);
    EXPECT_EQ(ops, make_ops(w, 7, 20)) << workload_name(w);
    EXPECT_NE(ops, make_ops(w, 8, 20)) << workload_name(w);
    EXPECT_EQ(ops.size(), op_count(w, 20));
    EXPECT_GE(ops.size(), kMinOps);
    std::set<std::uint64_t> seeds;
    for (const Op& op : ops) {
      seeds.insert(op.search_seed);
      EXPECT_LT(op.request, kCachedRequests);
    }
    EXPECT_EQ(seeds.size(), ops.size()) << "every search is distinct";
  }
  EXPECT_EQ(make_ops(Workload::kSearchMean, 3, 20),
            make_ops(Workload::kSearchRobust, 3, 20));
}

TEST(Ops, EveryRunHasAtLeastTheMinimumOps) {
  for (const Workload w : all_workloads())
    EXPECT_GE(op_count(w, 1), kMinOps) << workload_name(w);
}

TEST(ClosedLoop, EndsOnlyWhenEveryOpHasRun) {
  // Ops far slower than any nominal rate still all run: the loop has no
  // deadline to cut them off.
  for (const int clients : {1, 3}) {
    constexpr std::size_t kOps = 40;
    std::vector<std::atomic<int>> runs(kOps);
    const double wall = run_closed_loop(kOps, clients, [&](std::size_t op) {
      std::this_thread::sleep_for(std::chrono::milliseconds(op % 4));
      ++runs[op];
    });
    for (std::size_t op = 0; op < kOps; ++op) EXPECT_EQ(runs[op], 1) << op;
    EXPECT_GT(wall, 0.0);
  }
}

TEST(ClosedLoop, RethrowsAFailedOpAfterEveryClientStopped) {
  std::atomic<int> ran{0};
  EXPECT_THROW(run_closed_loop(20, 2,
                               [&](std::size_t op) {
                                 ++ran;
                                 if (op == 3) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 4);
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  EXPECT_FALSE(percentile(samples, 0.9).has_value());
  samples.push_back(100);
  const std::optional<Percentile> p90 = percentile(samples, 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->value, 90);
  EXPECT_EQ(p90->samples, 100u);
  EXPECT_EQ(p90->beyond, 10u);

  const std::vector<double> twenty(samples.begin(), samples.begin() + 20);
  const std::optional<Percentile> p50 = percentile(twenty, 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 10);
  EXPECT_EQ(p50->beyond, 10u);
  EXPECT_FALSE(percentile({samples.begin(), samples.begin() + 19}, 0.5));
  EXPECT_FALSE(percentile({}, 0.5));
}

TEST(Metrics, NamesAreValidAndUnique) {
  EXPECT_TRUE(valid_metric_name("latency_ms.p50"));
  EXPECT_TRUE(valid_metric_name("service.handle_us.submit_cached"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  for (const char* bad : {"", "a b", "x{op=1}", "_lead", ".lead", "caf\xc3\xa9"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));

  std::set<std::string> names;
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *specs) {
      EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
      EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
      EXPECT_TRUE(spec.better == "lower" || spec.better == "higher");
    }
  }
}

TEST(Metrics, MatchBenchmarkJson) {
  const automap::JsonValue json =
      automap::parse_json(automap::load_text(PERFBENCH_JSON));
  const auto check = [&](const char* key, const std::vector<MetricSpec>& specs) {
    const automap::JsonValue* list = json.find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_EQ(list->array.size(), specs.size()) << key;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(list->array[i].str_or("name", ""), specs[i].name);
      EXPECT_EQ(list->array[i].str_or("unit", ""), specs[i].unit);
      EXPECT_EQ(list->array[i].str_or("better", ""), specs[i].better);
    }
  };
  check("end_to_end", end_to_end_metrics());
  check("per_layer", per_layer_metrics());
  const automap::JsonValue* workloads = json.find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->array.size(), all_workloads().size());
  for (std::size_t i = 0; i < all_workloads().size(); ++i)
    EXPECT_EQ(workloads->array[i].str_or("name", ""),
              workload_name(all_workloads()[i]));
}

TEST(Metrics, ResultLineNeedsEveryMetricFinite) {
  const std::vector<MetricSpec> specs = {{"a.b", "ms", "lower"}};
  EXPECT_EQ(render_result_line(true, 3, 0, specs, {{"a.b", 1.5}}),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
            "{\"a.b\":{\"value\":1.5,\"unit\":\"ms\"}}}");
  EXPECT_THROW((void)render_result_line(true, 3, 0, specs, {}), std::logic_error);
  EXPECT_THROW((void)render_result_line(true, 3, 0, specs, {{"a.b", INFINITY}}),
               std::logic_error);
}

}  // namespace
}  // namespace perfbench
