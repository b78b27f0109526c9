// Tests for the custom-mapper code generator: the structure and the
// decisions of the generated source. tests/cli_test.sh compiles a
// generated mapper against this library's headers, which catches drift
// from the Mapper API.

#include <gtest/gtest.h>

#include "src/apps/circuit.hpp"
#include "src/machine/machine.hpp"
#include "src/report/codegen.hpp"
#include "src/runtime/mapper.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

class CodegenFixture : public ::testing::Test {
 protected:
  CodegenFixture()
      : app(make_circuit(circuit_config_for(1, 1))),
        machine(make_shepard(1)) {
    DefaultMapper dm;
    mapping = dm.map_all(app.graph, machine);
    mapping.at(TaskId(2)).proc = ProcKind::kCpu;
    mapping.at(TaskId(2)).distribute = false;
    std::ranges::fill(mapping.memories(TaskId(2)),
                      MemPriority{MemKind::kSystem, MemKind::kZeroCopy});
  }

  BenchmarkApp app;
  MachineModel machine;
  Mapping mapping;
};

TEST_F(CodegenFixture, EmitsOneBranchPerTask) {
  const std::string src =
      generate_mapper_source(app.graph, mapping, "CircuitTunedMapper");
  EXPECT_NE(src.find("class CircuitTunedMapper final : public Mapper"),
            std::string::npos);
  for (const GroupTask& t : app.graph.tasks()) {
    EXPECT_NE(src.find("task.name == \"" + t.name + "\""),
              std::string::npos);
  }
  EXPECT_NE(src.find("DefaultMapper fallback"), std::string::npos);
}

TEST_F(CodegenFixture, EachBranchChecksTheTasksArgumentCount) {
  // A task whose arguments changed since generation takes the fallback
  // instead of writing past the end of its memory lists.
  const std::string src = generate_mapper_source(app.graph, mapping, "M");
  for (const GroupTask& t : app.graph.tasks()) {
    EXPECT_NE(src.find("task.name == \"" + t.name +
                       "\" && memories.size() == " +
                       std::to_string(t.args.size()) + ")"),
              std::string::npos)
        << t.name;
  }
  EXPECT_NE(src.find("memories[" + std::to_string(
                         app.graph.task(TaskId(0)).args.size() - 1) + "] = {"),
            std::string::npos);
}

TEST_F(CodegenFixture, EncodesEveryDecisionKind) {
  const std::string src =
      generate_mapper_source(app.graph, mapping, "M");
  EXPECT_NE(src.find("ProcKind::kGpu"), std::string::npos);
  EXPECT_NE(src.find("ProcKind::kCpu"), std::string::npos);
  EXPECT_NE(src.find("MemKind::kFrameBuffer"), std::string::npos);
  // The priority list survives as a two-element initializer.
  EXPECT_NE(src.find("{MemKind::kSystem, MemKind::kZeroCopy}"),
            std::string::npos);
  EXPECT_NE(src.find("tm.distribute = false"), std::string::npos);
}

TEST_F(CodegenFixture, BlockedFlagOnlyWhenMeaningful) {
  Mapping blocked = mapping;
  blocked.at(TaskId(0)).blocked = true;
  const std::string src =
      generate_mapper_source(app.graph, blocked, "M");
  EXPECT_NE(src.find("tm.blocked = true"), std::string::npos);
  const std::string plain =
      generate_mapper_source(app.graph, mapping, "M");
  EXPECT_EQ(plain.find("tm.blocked"), std::string::npos);
}

TEST_F(CodegenFixture, RejectsBadClassNames) {
  EXPECT_THROW(
      (void)generate_mapper_source(app.graph, mapping, ""), Error);
  EXPECT_THROW(
      (void)generate_mapper_source(app.graph, mapping, "1Bad"), Error);
  EXPECT_THROW(
      (void)generate_mapper_source(app.graph, mapping, "has space"),
      Error);
}

TEST_F(CodegenFixture, BracesBalance) {
  const std::string src =
      generate_mapper_source(app.graph, mapping, "M");
  EXPECT_EQ(std::count(src.begin(), src.end(), '{'),
            std::count(src.begin(), src.end(), '}'));
  EXPECT_EQ(std::count(src.begin(), src.end(), '('),
            std::count(src.begin(), src.end(), ')'));
}

}  // namespace
}  // namespace automap
