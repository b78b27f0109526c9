// Tests for the run digest (src/report/profile) as read through a whole
// application — per-pool busy time, copy wait, run totals — plus run
// comparison and the search-telemetry rendering (src/report/analysis).

#include <gtest/gtest.h>

#include <string>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/machine/machine.hpp"
#include "src/report/analysis.hpp"
#include "src/report/profile.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

/// Busy seconds of the `"<kind> pool"` row, 0 when the pool never ran.
double pool_busy(const ExecutionProfile& profile, ProcKind kind) {
  const std::string name = std::string(to_string(kind)) + " pool";
  for (const ResourceUsage& r : profile.resources)
    if (r.resource == name) return r.busy_seconds;
  return 0.0;
}

class AnalysisFixture : public ::testing::Test {
 protected:
  AnalysisFixture()
      : app(make_htr(htr_config_for(1, 1))), machine(make_shepard(1)),
        sim(machine, app.graph,
            {.iterations = 3, .noise_sigma = 0.0}) {
    DefaultMapper dm;
    report = sim.run(dm.map_all(app.graph, machine), 1);
  }

  BenchmarkApp app;
  MachineModel machine;
  Simulator sim;
  ExecutionReport report;
};

TEST_F(AnalysisFixture, BasicsAreConsistent) {
  ASSERT_TRUE(report.ok);
  const ExecutionProfile p = compute_profile(app.graph, report);
  EXPECT_DOUBLE_EQ(p.makespan_s, report.total_seconds);
  EXPECT_EQ(p.iterations, 3);
  EXPECT_EQ(p.energy_joules, report.energy_joules);
  EXPECT_EQ(p.intra_node_copy_bytes, report.intra_node_copy_bytes);
  EXPECT_EQ(p.inter_node_copy_bytes, report.inter_node_copy_bytes);
  EXPECT_EQ(p.tasks.size(), app.graph.num_tasks());
  // Ranking is descending.
  for (std::size_t i = 1; i < p.tasks.size(); ++i)
    EXPECT_GE(p.tasks[i - 1].busy_seconds, p.tasks[i].busy_seconds);
  // HTR under the default mapping is dominated by chemistry.
  EXPECT_EQ(app.graph.task(p.tasks.front().task).name, "chemistry_source");
}

TEST_F(AnalysisFixture, PerKindBreakdownTracksTheMapping) {
  const ExecutionProfile all_gpu = compute_profile(app.graph, report);
  // Default mapping: everything on the GPU.
  EXPECT_GT(pool_busy(all_gpu, ProcKind::kGpu), 0.0);
  EXPECT_EQ(pool_busy(all_gpu, ProcKind::kCpu), 0.0);

  Mapping cpu(app.graph);
  for (const GroupTask& t : app.graph.tasks()) {
    cpu.at(t.id).proc = ProcKind::kCpu;
    std::ranges::fill(cpu.memories(t.id), MemPriority{MemKind::kSystem});
  }
  const ExecutionReport cpu_report = sim.run(cpu, 1);
  ASSERT_TRUE(cpu_report.ok);
  const ExecutionProfile all_cpu = compute_profile(app.graph, cpu_report);
  EXPECT_EQ(pool_busy(all_cpu, ProcKind::kGpu), 0.0);
  EXPECT_GT(pool_busy(all_cpu, ProcKind::kCpu), 0.0);
}

TEST_F(AnalysisFixture, RenderMentionsKeyQuantities) {
  const std::string text =
      render_profile(app.graph, compute_profile(app.graph, report));
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("per-task time breakdown"), std::string::npos);
  EXPECT_NE(text.find("chemistry_source"), std::string::npos);
  EXPECT_NE(text.find("energy"), std::string::npos);
  EXPECT_NE(text.find("copies/iter: intra-node"), std::string::npos);
  EXPECT_NE(text.find("inter-node"), std::string::npos);
}

TEST_F(AnalysisFixture, CompareRunsShowsImprovementDirection) {
  // Compare the default against a deliberately worse mapping (everything
  // leader-only is not available on 1 node; use all-ZeroCopy instead).
  Mapping slow(app.graph);
  for (const GroupTask& t : app.graph.tasks()) {
    slow.at(t.id).proc =
        t.cost.has_gpu_variant() ? ProcKind::kGpu : ProcKind::kCpu;
    std::ranges::fill(slow.memories(t.id), MemPriority{MemKind::kZeroCopy});
  }
  const ExecutionReport slow_report = sim.run(slow, 1);
  ASSERT_TRUE(slow_report.ok);
  ASSERT_GT(slow_report.total_seconds, report.total_seconds);

  const std::string text = compare_runs(app.graph, slow_report, report);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_NE(text.find("largest per-task changes"), std::string::npos);
  // The speedup factor is > 1 and rendered.
  EXPECT_NE(text.find("x)"), std::string::npos);
}

TEST_F(AnalysisFixture, FailedRunsAreRejected) {
  ExecutionReport failed;
  failed.ok = false;
  EXPECT_THROW((void)compute_profile(app.graph, failed), Error);
  EXPECT_THROW((void)compare_runs(app.graph, failed, report), Error);
  // A successful run without a trace cannot be profiled either.
  ExecutionReport untraced = report;
  untraced.trace.clear();
  EXPECT_THROW((void)compute_profile(app.graph, untraced), Error);
}

TEST(Analysis, CopyWaitAppearsUnderMixedMappings) {
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 4));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph,
                {.iterations = 3, .noise_sigma = 0.0});
  Mapping mixed(app.graph);
  mixed.at(TaskId(1)).proc = ProcKind::kCpu;
  std::ranges::fill(mixed.memories(TaskId(1)), MemPriority{MemKind::kSystem});
  const ExecutionReport report = sim.run(mixed, 1);
  ASSERT_TRUE(report.ok);
  const ExecutionProfile p = compute_profile(app.graph, report);
  double copy_wait = 0.0;
  for (const TaskTimeBreakdown& t : p.tasks) copy_wait += t.copy_wait_seconds;
  EXPECT_GT(copy_wait, 0.0);
  EXPECT_GT(p.intra_node_copy_bytes, 0u);
}

TEST(SearchTelemetry, RendersCountersClocksAndConvergence) {
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  const SearchResult result =
      run_ccd(sim, {.rotations = 2, .repeats = 2, .seed = 3});
  ASSERT_GT(result.trajectory.size(), 1u);

  const std::string text = render_search_telemetry(result);
  const SearchStats& s = result.stats;
  EXPECT_NE(text.find(std::to_string(s.suggested) + " suggested, " +
                      std::to_string(s.evaluated) + " evaluated"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(std::to_string(s.cache_hits) + " hits / " +
                      std::to_string(s.suggested) + " lookups"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("clocks: simulated"), std::string::npos);
  EXPECT_NE(text.find("convergence: "), std::string::npos);
  EXPECT_NE(text.find(std::to_string(result.trajectory.size()) +
                      " incumbents"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rotations (best before -> after, delta):"),
            std::string::npos);
}

}  // namespace
}  // namespace automap
