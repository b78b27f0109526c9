// Tests for the mapping/trace visualization (Fig. 2/3-style rendering, DOT
// export, Chrome tracing export).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "src/apps/circuit.hpp"
#include "src/apps/registry.hpp"
#include "src/machine/machine.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/search.hpp"
#include "src/service/flight_recorder.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {
namespace {

class VisualizeFixture : public ::testing::Test {
 protected:
  VisualizeFixture()
      : app(make_circuit(circuit_config_for(1, 1))),
        machine(make_shepard(1)) {
    DefaultMapper dm;
    mapping = dm.map_all(app.graph, machine);
    mapping.at(TaskId(1)).proc = ProcKind::kCpu;
    std::ranges::fill(mapping.memories(TaskId(1)),
                      MemPriority{MemKind::kZeroCopy});
  }

  BenchmarkApp app;
  MachineModel machine;
  Mapping mapping;
};

TEST_F(VisualizeFixture, TextRenderingShowsEveryTaskAndMemoryLetter) {
  const std::string text = render_mapping(app.graph, mapping);
  for (const GroupTask& t : app.graph.tasks())
    EXPECT_NE(text.find(t.name), std::string::npos) << t.name;
  EXPECT_NE(text.find("[F]"), std::string::npos);  // FrameBuffer args
  EXPECT_NE(text.find("[Z]"), std::string::npos);  // the ZeroCopy demotions
  EXPECT_NE(text.find("[GPU]"), std::string::npos);
  EXPECT_NE(text.find("[CPU]"), std::string::npos);
  // Relative-size bars present.
  EXPECT_NE(text.find("|#"), std::string::npos);
}

TEST_F(VisualizeFixture, DotOutputIsWellFormed) {
  const std::string dot = render_mapping_dot(app.graph, mapping);
  EXPECT_EQ(dot.find("digraph mapping {"), 0u);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  for (const GroupTask& t : app.graph.tasks())
    EXPECT_NE(dot.find("t" + std::to_string(t.id.value()) + " ["),
              std::string::npos);
  // Data edges rendered with byte labels; braces balanced.
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST_F(VisualizeFixture, ChromeTraceContainsAllEvents) {
  Simulator sim(machine, app.graph,
                {.iterations = 2, .noise_sigma = 0.0});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok);
  ASSERT_FALSE(report.trace.empty());

  // Every task executes once per iteration.
  std::size_t task_events = 0;
  for (const auto& e : report.trace)
    if (e.kind == TraceEvent::Kind::kTask) ++task_events;
  EXPECT_EQ(task_events, app.graph.num_tasks() * 2);

  const std::string json = render_chrome_trace(app.graph, report);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("GPU pool"), std::string::npos);
  // Events are time-consistent: starts non-negative, durations positive.
  for (const auto& e : report.trace) {
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_GT(e.duration_s, 0.0);
  }
}

TEST_F(VisualizeFixture, TraceDisabledByDefault) {
  // Only Simulator::run records events; the search's run_prepared and
  // run_repeats record totals.
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  SimScratch scratch;
  ASSERT_TRUE(sim.begin_runs(mapping, scratch));
  const ExecutionReport& report = sim.run_prepared(
      mapping, 1, scratch, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.trace.empty());
  const std::uint64_t seeds[] = {1, 2};
  for (const ExecutionReport& r : sim.run_repeats(mapping, seeds, scratch))
    EXPECT_TRUE(r.trace.empty());
}

TEST_F(VisualizeFixture, TraceOfFailedRunIsRejected) {
  ExecutionReport failed;
  failed.ok = false;
  EXPECT_THROW((void)render_chrome_trace(app.graph, failed), Error);
}

TEST(ChromeTrace, ControlBytesInTaskNamesAreEscaped) {
  // The graph reader accepts any bytes in a task name; the trace must still
  // be JSON, and the name must come back as written.
  const std::string name = "sten\x01" "cil\x1f\"\\";
  TaskGraph graph;
  const RegionId region = graph.add_region("grid", Rect::line(0, 999), 8);
  const CollectionId all = graph.add_collection(region, "all",
                                                Rect::line(0, 999));
  graph.add_task(name, 4, {.cpu_seconds_per_point = 1e-4},
                 {{all, Privilege::kReadWrite}});
  const MachineModel machine = make_shepard(1);
  Mapping mapping(graph);
  mapping.at(TaskId(0)).proc = ProcKind::kCpu;
  std::ranges::fill(mapping.memories(TaskId(0)),
                    MemPriority{MemKind::kSystem});
  Simulator sim(machine, graph, {.iterations = 2, .noise_sigma = 0.0});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok) << report.failure;

  const std::string json = render_chrome_trace(graph, report);
  // JSON strings hold no raw control byte (parse_json rejects one, as
  // Python's json.load does).
  EXPECT_TRUE(std::none_of(json.begin(), json.end() - 1, [](unsigned char c) {
    return c < 0x20;
  })) << json;
  const JsonValue trace = parse_json(json);
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int named = 0;
  for (const JsonValue& e : events->array)
    if (e.str_or("ph", "") == "X") {
      EXPECT_EQ(e.str_or("name", ""), name);
      ++named;
    }
  EXPECT_EQ(named, 2);
}

TEST(ChromeTrace, EventTimesParseBackBitForBit) {
  // HTR step 0 on shepard(1) under the default mapping, noise on: every
  // complete event's ts and dur print as json_double prints, so they
  // parse back to the run's microseconds exactly.
  const BenchmarkApp app = make_app_by_name("htr", 1, 0);
  const MachineModel machine = make_shepard(1);
  const Simulator sim(machine, app.graph, {});
  const ExecutionReport report =
      sim.run(search_starting_point(app.graph, machine), 7);
  ASSERT_TRUE(report.ok) << report.failure;
  const JsonValue trace = parse_json(render_chrome_trace(app.graph, report));
  std::size_t next = 0;
  for (const JsonValue& e : trace.find("traceEvents")->array) {
    if (e.str_or("ph", "") != "X") continue;
    ASSERT_LT(next, report.trace.size());
    const TraceEvent& event = report.trace[next++];
    EXPECT_EQ(e.num_or("ts", -1), event.start_s * 1e6) << next;
    EXPECT_EQ(e.num_or("dur", -1), event.duration_s * 1e6) << next;
  }
  EXPECT_EQ(next, report.trace.size());
}

TEST(ChromeTrace, FlightRecorderSpansStayApartAfterAnHourOfUptime) {
  // Job 1 is recorded at 0 ms; an hour later job 2 queues, runs 5 ms
  // later and finishes 2 ms after that. Six significant digits printed
  // all three at about 3.6e+09 us.
  const auto now = std::make_shared<double>(0.0);
  FlightRecorder recorder([now] { return *now; });
  recorder.transition(1, "queued", -1);
  *now = 3'600'000;
  recorder.transition(2, "queued", -1);
  *now += 5;
  recorder.transition(2, "running", 0);
  *now += 2;
  recorder.terminal(2, "finished");

  const JsonValue trace = parse_json(recorder.chrome_trace());
  std::map<std::string, const JsonValue*> job2;
  for (const JsonValue& e : trace.find("traceEvents")->array)
    if (e.str_or("name", "").rfind("j2 ", 0) == 0)
      job2[e.str_or("name", "")] = &e;
  ASSERT_EQ(job2.size(), 3u);
  const double queued = job2.at("j2 queued")->num_or("ts", -1);
  const double running = job2.at("j2 running")->num_or("ts", -1);
  const double finished = job2.at("j2 finished")->num_or("ts", -1);
  EXPECT_EQ(queued, 3.6e9);
  EXPECT_EQ(running - queued, 5000.0);
  EXPECT_EQ(finished - running, 2000.0);
  // The chain has no gap: each bar ends where the next event starts.
  EXPECT_EQ(queued + job2.at("j2 queued")->num_or("dur", -1), running);
  EXPECT_EQ(running + job2.at("j2 running")->num_or("dur", -1), finished);
}

TEST_F(VisualizeFixture, CopyEventsAppearWhenMemoriesMismatch) {
  Simulator sim(machine, app.graph,
                {.iterations = 2, .noise_sigma = 0.0});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok);
  bool copy_found = false;
  for (const auto& e : report.trace)
    if (e.kind == TraceEvent::Kind::kCopy) copy_found = true;
  // The mixed GPU/CPU mapping moves data between FrameBuffer and ZeroCopy.
  EXPECT_TRUE(copy_found);
}

}  // namespace
}  // namespace automap
