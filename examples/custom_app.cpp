// Bring your own application: writing a task-based program against the
// mini-Legion Program API and tuning it with AutoMap.
//
// The app is a 1-D reaction-diffusion solver: per time step, a
// memory-bound diffusion sweep over a block-partitioned field (with halo
// exchange built by the partition helper), a compute-dense per-cell
// reaction step with a GPU-friendly variant, and a cheap reduction. The
// point of the example is the workflow, not the physics:
//
//   Program -> lower() -> Simulator -> automap_optimize -> mapping.
//
// Usage: custom_app [cells] [pieces]   (default 262144 16; at this size
// AutoMap finds a mixed CPU/GPU mapping ~1.3x faster than the default)

#include <cstdlib>
#include <iostream>

#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/report/profile.hpp"
#include "src/runtime/mapper.hpp"
#include "src/runtime/partition.hpp"
#include "src/runtime/program.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"

int main(int argc, char** argv) {
  using namespace automap;
  const long cells = argc > 1 ? std::atol(argv[1]) : 1L << 18;
  const int pieces = argc > 2 ? std::atoi(argv[2]) : 16;

  // --- write the application against the Program API ----------------------
  Program program;
  const RegionId field =
      program.add_region("field", Rect::line(0, cells - 1), 8);
  const RegionId rates =
      program.add_region("rates", Rect::line(0, cells - 1), 8);
  const RegionId misc = program.add_region("misc", Rect::line(0, 255), 8);

  // Block-partition the field with 2-wide halos; the helper creates the
  // overlap structure the dependence analysis and CCD consume.
  const BlockPartition1D part = make_block_partition_1d(
      program, field, 0, cells - 1, pieces, /*halo_width=*/2, "field");
  const CollectionId field_all =
      program.add_collection(field, "field_all", Rect::line(0, cells - 1));
  const CollectionId rate_all =
      program.add_collection(rates, "rates_all", Rect::line(0, cells - 1));
  const CollectionId residual =
      program.add_collection(misc, "residual", Rect::line(0, 255));

  const double per_piece = static_cast<double>(cells) / pieces;
  // diffuse: 3-point stencil, memory bound (tiny per-cell compute).
  program.launch("diffuse", pieces,
                 {.cpu_seconds_per_point = 1.0e-9 * per_piece,
                  .gpu_seconds_per_point = 0.02e-9 * per_piece},
                 {{field_all, Privilege::kReadWrite, 1.0},
                  {part.halo_lo[1], Privilege::kReadOnly, 1.0},
                  {part.halo_hi[0], Privilege::kReadOnly, 1.0},
                  {part.blocks[0], Privilege::kWriteOnly, 1.0},
                  {part.blocks[1], Privilege::kWriteOnly, 1.0}});
  // react: stiff per-cell chemistry, strongly GPU-favoured.
  program.launch("react", pieces,
                 {.cpu_seconds_per_point = 0.5e-6 * per_piece,
                  .gpu_seconds_per_point = 5e-9 * per_piece},
                 {{field_all, Privilege::kReadOnly, 1.0},
                  {rate_all, Privilege::kWriteOnly, 1.0}});
  program.launch("apply_rates", pieces,
                 {.cpu_seconds_per_point = 0.8e-9 * per_piece,
                  .gpu_seconds_per_point = 0.02e-9 * per_piece},
                 {{field_all, Privilege::kReadWrite, 1.0},
                  {rate_all, Privilege::kReadOnly, 1.0}});
  // residual_norm: cheap reduction, CPU-friendly.
  program.launch("residual_norm", pieces,
                 {.cpu_seconds_per_point = 0.2e-9 * per_piece,
                  .gpu_seconds_per_point = 0.05e-9 * per_piece},
                 {{field_all, Privilege::kReadOnly, 0.5},
                  {residual, Privilege::kReduce, 1.0}});

  const TaskGraph graph = program.lower();
  std::cout << "lowered: " << graph.num_tasks() << " tasks, "
            << graph.num_collections() << " collections, "
            << graph.num_edges() << " dependences\n";

  // --- tune -----------------------------------------------------------------
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, graph, {.iterations = 10, .noise_sigma = 0.05});

  DefaultMapper dm;
  const double def = measure_mapping(sim, dm.map_all(graph, machine), 31, 1);
  const SearchResult res = automap_optimize(sim, SearchAlgorithm::kCcd,
                                            {.rotations = 5, .repeats = 7,
                                             .seed = 42});
  const double am = measure_mapping(sim, res.best, 31, 2);
  std::cout << "default " << format_seconds(def) << ", AutoMap "
            << format_seconds(am) << " (" << format_speedup(def / am)
            << ")\n\n"
            << res.best.describe(graph);

  // Rerun the winner for the execution profile: Simulator::run records
  // every event of the run.
  const auto report = sim.run(res.best, 7);
  if (report.ok)
    std::cout << "\n" << render_profile(graph, compute_profile(graph, report));
  return 0;
}
