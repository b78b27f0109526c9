// Tests for the five benchmark application generators: Fig. 5 counts,
// input-label series, overlap structure and behaviour under the simulator.

#include <gtest/gtest.h>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/maestro.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"

namespace automap {
namespace {

// --- Fig. 5 inventory ------------------------------------------------------

TEST(Apps, CircuitMatchesFigureFive) {
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  EXPECT_EQ(app.graph.num_tasks(), 3u);
  EXPECT_EQ(app.graph.num_collection_args(), 15u);
  EXPECT_NO_THROW(app.graph.validate());
}

TEST(Apps, StencilMatchesFigureFive) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  EXPECT_EQ(app.graph.num_tasks(), 2u);
  EXPECT_EQ(app.graph.num_collection_args(), 12u);
}

TEST(Apps, PennantMatchesFigureFive) {
  const BenchmarkApp app = make_pennant(pennant_config_for(1, 0));
  EXPECT_EQ(app.graph.num_tasks(), 31u);
  EXPECT_EQ(app.graph.num_collection_args(), 97u);
}

TEST(Apps, HtrMatchesFigureFive) {
  const BenchmarkApp app = make_htr(htr_config_for(1, 0));
  EXPECT_EQ(app.graph.num_tasks(), 28u);
  EXPECT_EQ(app.graph.num_collection_args(), 72u);
}

TEST(Apps, MaestroMatchesFigureFive) {
  MaestroConfig c;
  c.num_lf_samples = 16;
  const BenchmarkApp app = make_maestro(c);
  EXPECT_EQ(maestro_lf_tasks(app).size(), 13u);
  EXPECT_EQ(maestro_hf_tasks(app).size(), 2u);
}

// --- input label series (Fig. 6) ------------------------------------------

TEST(Apps, CircuitSeriesMatchesFigure6a) {
  EXPECT_EQ(circuit_input_label(circuit_config_for(1, 0)), "n50w200");
  EXPECT_EQ(circuit_input_label(circuit_config_for(1, 7)), "n12800w51200");
  EXPECT_EQ(circuit_input_label(circuit_config_for(2, 0)), "n100w400");
  EXPECT_EQ(circuit_input_label(circuit_config_for(8, 7)), "n102400w409600");
}

TEST(Apps, StencilSeriesMatchesFigure6b) {
  EXPECT_EQ(stencil_input_label(stencil_config_for(1, 0)), "500x500");
  EXPECT_EQ(stencil_input_label(stencil_config_for(1, 10)), "5500x5500");
  EXPECT_EQ(stencil_input_label(stencil_config_for(2, 0)), "1000x500");
  EXPECT_EQ(stencil_input_label(stencil_config_for(4, 0)), "1000x1000");
  EXPECT_EQ(stencil_input_label(stencil_config_for(8, 10)), "22000x11000");
}

TEST(Apps, PennantSeriesMatchesFigure6c) {
  EXPECT_EQ(pennant_input_label(pennant_config_for(1, 0)), "320x90");
  EXPECT_EQ(pennant_input_label(pennant_config_for(1, 6)), "320x5760");
  EXPECT_EQ(pennant_input_label(pennant_config_for(8, 6)), "320x46080");
}

TEST(Apps, HtrSeriesMatchesFigure6d) {
  EXPECT_EQ(htr_input_label(htr_config_for(1, 0)), "8x8y9z");
  EXPECT_EQ(htr_input_label(htr_config_for(1, 4)), "128x128y144z");
  EXPECT_EQ(htr_input_label(htr_config_for(2, 0)), "8x16y9z");
  EXPECT_EQ(htr_input_label(htr_config_for(8, 4)), "128x1024y144z");
}

// --- structural properties -------------------------------------------------

TEST(Apps, CircuitSharedGhostOverlap) {
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 3));
  const auto overlaps = app.graph.build_overlap_graph();
  EXPECT_FALSE(overlaps.empty());
  // Shared and ghost node collections must overlap.
  bool shared_ghost = false;
  for (const auto& e : overlaps) {
    const auto& a = app.graph.collection(e.a).name;
    const auto& b = app.graph.collection(e.b).name;
    if ((a.find("shared") != std::string::npos &&
         b.find("ghost") != std::string::npos) ||
        (a.find("ghost") != std::string::npos &&
         b.find("shared") != std::string::npos)) {
      shared_ghost = true;
      EXPECT_GT(e.weight_bytes, 0u);
    }
  }
  EXPECT_TRUE(shared_ghost);
}

TEST(Apps, StencilHaloBoundaryOverlap) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 3));
  bool halo_bnd = false;
  for (const auto& e : app.graph.build_overlap_graph()) {
    const auto& a = app.graph.collection(e.a).name;
    const auto& b = app.graph.collection(e.b).name;
    if ((a.find("halo") != std::string::npos &&
         b.find("boundary") != std::string::npos) ||
        (a.find("boundary") != std::string::npos &&
         b.find("halo") != std::string::npos)) {
      halo_bnd = true;
    }
  }
  EXPECT_TRUE(halo_bnd);
}

TEST(Apps, PennantMasterGhostOverlap) {
  const BenchmarkApp app = make_pennant(pennant_config_for(1, 1));
  std::uint64_t w = 0;
  for (const auto& e : app.graph.build_overlap_graph()) {
    const auto& a = app.graph.collection(e.a).name;
    const auto& b = app.graph.collection(e.b).name;
    if (a.find("p_f_") == 0 && b.find("p_f_") == 0) w += e.weight_bytes;
  }
  EXPECT_GT(w, 0u);
}

TEST(Apps, HtrHalosOverlapPrimitiveField) {
  const BenchmarkApp app = make_htr(htr_config_for(1, 2));
  int halo_overlaps = 0;
  for (const auto& e : app.graph.build_overlap_graph()) {
    const auto& a = app.graph.collection(e.a).name;
    const auto& b = app.graph.collection(e.b).name;
    if ((a == "primitive" && b.find("halo_") == 0) ||
        (b == "primitive" && a.find("halo_") == 0)) {
      ++halo_overlaps;
    }
  }
  EXPECT_EQ(halo_overlaps, 6);
}

TEST(Apps, GraphsAreAcyclicAndConnectedThroughTime) {
  for (const BenchmarkApp& app :
       {make_circuit(circuit_config_for(2, 2)),
        make_stencil(stencil_config_for(2, 2)),
        make_pennant(pennant_config_for(2, 2)), make_htr(htr_config_for(2, 2)),
        make_maestro({.num_lf_samples = 8, .num_nodes = 2})}) {
    EXPECT_NO_THROW(app.graph.validate()) << app.name;
    EXPECT_GT(app.graph.num_edges(), app.graph.num_tasks()) << app.name;
    bool has_cross = false;
    for (const auto& e : app.graph.edges())
      if (e.cross_iteration) has_cross = true;
    EXPECT_TRUE(has_cross) << app.name << " should be iterative";
  }
}

// --- behaviour under the simulator ----------------------------------------

/// The default mapping must be executable for every app and input.
TEST(Apps, DefaultMappingRunsEverywhere) {
  const MachineModel machine = make_shepard(2);
  DefaultMapper mapper;
  for (const BenchmarkApp& app :
       {make_circuit(circuit_config_for(2, 4)),
        make_stencil(stencil_config_for(2, 4)),
        make_pennant(pennant_config_for(2, 3)), make_htr(htr_config_for(2, 2)),
        make_maestro({.num_lf_samples = 8, .num_nodes = 2})}) {
    Simulator sim(machine, app.graph, app.sim);
    const Mapping m = mapper.map_all(app.graph, machine);
    const auto report = sim.run(m, 1);
    EXPECT_TRUE(report.ok) << app.name << ": " << report.failure;
    EXPECT_GT(report.total_seconds, 0.0) << app.name;
  }
}

/// Small weak-scaled inputs must favour CPU mappings (launch overhead), and
/// large ones must favour the GPU default — the Fig. 6 shape.
TEST(Apps, CircuitCrossoverSmallCpuLargeGpu) {
  const MachineModel machine = make_shepard(1);
  DefaultMapper mapper;

  auto ratio = [&](int step) {
    const BenchmarkApp app = make_circuit(circuit_config_for(1, step));
    Simulator sim(machine, app.graph,
                  {.iterations = 5, .noise_sigma = 0.0});
    const Mapping gpu = mapper.map_all(app.graph, machine);
    Mapping cpu(app.graph);
    for (const GroupTask& t : app.graph.tasks()) {
      cpu.at(t.id).proc = ProcKind::kCpu;
      std::ranges::fill(cpu.memories(t.id), MemPriority{MemKind::kSystem});
    }
    return sim.run(cpu, 1).total_seconds / sim.run(gpu, 1).total_seconds;
  };
  EXPECT_LT(ratio(0), 1.0);  // n50w200: CPU mapping wins
  EXPECT_GT(ratio(7), 1.0);  // n12800w51200: GPU default wins
}

TEST(Apps, HtrChemistryDominatesOnGpuAtScale) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_htr(htr_config_for(1, 4));
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  DefaultMapper mapper;
  const Mapping gpu = mapper.map_all(app.graph, machine);
  Mapping cpu(app.graph);
  for (const GroupTask& t : app.graph.tasks()) {
    cpu.at(t.id).proc = ProcKind::kCpu;
    std::ranges::fill(cpu.memories(t.id), MemPriority{MemKind::kSystem});
  }
  EXPECT_LT(sim.run(gpu, 1).total_seconds, sim.run(cpu, 1).total_seconds);
}

TEST(Apps, PennantFootprintHelpersConsistent) {
  PennantConfig c;
  c.zones_y = 1000;
  const std::uint64_t b1 = pennant_total_bytes(c);
  c.zones_y = 2000;
  const std::uint64_t b2 = pennant_total_bytes(c);
  EXPECT_NEAR(static_cast<double>(b2), 2.0 * static_cast<double>(b1),
              0.02 * static_cast<double>(b2));

  const long max_y = pennant_max_fb_zones_y(16ull << 30, 1, 1);
  EXPECT_GT(max_y, 0);
  // An input at ~95% of the capacity fits; +15% does not.
  PennantConfig fit;
  fit.zones_y = (max_y * 95) / 100;
  EXPECT_LE(pennant_total_bytes(fit), 16ull << 30);
  PennantConfig burst;
  burst.zones_y = (max_y * 115) / 100;
  EXPECT_GT(pennant_total_bytes(burst), 16ull << 30);
}

TEST(Apps, PennantOverCapacityInputOomsOnDefaultMapping) {
  const MachineModel machine = make_shepard(1);
  PennantConfig c;
  c.zones_y = (pennant_max_fb_zones_y(machine.mem_capacity(
                   MemKind::kFrameBuffer), 1, 1) * 107) / 100;
  const BenchmarkApp app = make_pennant(c);
  Simulator sim(machine, app.graph, app.sim);
  DefaultMapper mapper;
  const auto report = sim.run(mapper.map_all(app.graph, machine), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("out of memory"), std::string::npos);
}

TEST(Apps, MaestroHfAloneBaselineRunsAndScales) {
  const MachineModel machine = make_shepard(1);
  MaestroConfig alone;
  alone.num_lf_samples = 0;
  const BenchmarkApp hf_only = make_maestro(alone);
  EXPECT_EQ(maestro_lf_tasks(hf_only).size(), 0u);

  Simulator sim(machine, hf_only.graph, {.iterations = 3, .noise_sigma = 0.0});
  DefaultMapper mapper;
  const auto report = sim.run(mapper.map_all(hf_only.graph, machine), 1);
  ASSERT_TRUE(report.ok) << report.failure;

  // Adding LF samples on the GPU must not speed things up.
  MaestroConfig with_lf = alone;
  with_lf.num_lf_samples = 32;
  const BenchmarkApp both = make_maestro(with_lf);
  Simulator sim2(machine, both.graph, {.iterations = 3, .noise_sigma = 0.0});
  Mapping gpu_zc = mapper.map_all(both.graph, machine);
  for (const TaskId t : maestro_lf_tasks(both)) {
    gpu_zc.at(t).proc = ProcKind::kGpu;
    std::ranges::fill(gpu_zc.memories(t), MemPriority{MemKind::kZeroCopy});
  }
  const auto r2 = sim2.run(gpu_zc, 1);
  ASSERT_TRUE(r2.ok) << r2.failure;
  EXPECT_GT(r2.total_seconds, report.total_seconds);
}

TEST(Apps, MaestroHfFillsMostOfTheFrameBuffer) {
  MaestroConfig c;
  c.num_lf_samples = 0;
  const BenchmarkApp app = make_maestro(c);
  std::uint64_t hf_bytes = 0;
  for (const auto& col : app.graph.collections())
    if (col.name.rfind("hf_", 0) == 0)
      hf_bytes += app.graph.collection_bytes(col.id);
  const std::uint64_t fb = 16ull << 30;
  EXPECT_GT(hf_bytes, (fb * 80) / 100);
  EXPECT_LT(hf_bytes, fb);
}

TEST(Apps, ConfigValidation) {
  EXPECT_THROW((void)circuit_config_for(1, 8), Error);
  EXPECT_THROW((void)circuit_config_for(0, 0), Error);
  EXPECT_THROW((void)stencil_config_for(1, 11), Error);
  EXPECT_THROW((void)pennant_config_for(1, 7), Error);
  EXPECT_THROW((void)htr_config_for(1, 5), Error);
  EXPECT_THROW((void)make_maestro({.num_lf_samples = -1}), Error);
}

}  // namespace
}  // namespace automap
