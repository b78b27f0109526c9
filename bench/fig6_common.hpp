#pragma once

// Shared driver for the Figure 6 benches: for each node count and each
// weak-scaled input, measure the default mapper, the hand-written custom
// mapper and the AutoMap-CCD result, and print speedups over the default —
// the exact series the paper plots.

#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/mappers/custom_mappers.hpp"
#include "src/report/analysis.hpp"
#include "src/report/profile.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

namespace automap::bench {

struct Fig6Row {
  int nodes;
  std::string input;
  double default_s;
  double custom_speedup;
  double automap_speedup;
};

/// Observability options shared by the figure benches: search telemetry per
/// sweep entry, an execution profile of the last AM-CCD winner, and a
/// Chrome-trace JSON export of that winner's run.
struct BenchObservability {
  /// --no-prune disables incumbent-bounded candidate pruning; results are
  /// bit-identical either way (only the wall-clock column changes), which
  /// is exactly what the flag exists to demonstrate.
  bool prune = true;
  bool telemetry = false;
  bool profile = false;
  std::string trace_json;
};

/// Parses --no-prune, --telemetry, --profile, --trace-json PATH.
inline BenchObservability parse_bench_observability(int argc, char** argv) {
  BenchObservability opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-prune")
      opts.prune = false;
    else if (arg == "--telemetry")
      opts.telemetry = true;
    else if (arg == "--profile")
      opts.profile = true;
    else if (arg == "--trace-json" && i + 1 < argc)
      opts.trace_json = argv[++i];
  }
  return opts;
}

/// Re-runs `mapping` noise-free (Simulator::run records its events) and
/// emits the profile digest and/or Chrome-trace JSON.
inline void emit_bench_observability(const MachineModel& machine,
                                     const BenchmarkApp& app,
                                     const Mapping& mapping,
                                     const BenchObservability& opts) {
  if (!opts.profile && opts.trace_json.empty()) return;
  SimOptions sim_options = app.sim;
  sim_options.noise_sigma = 0.0;
  Simulator sim(machine, app.graph, sim_options);
  const ExecutionReport report = sim.run(mapping, 1);
  if (!report.ok) return;
  if (opts.profile) {
    std::cout << "\n"
              << render_profile(app.graph, compute_profile(app.graph, report));
  }
  if (!opts.trace_json.empty()) {
    std::ofstream os(opts.trace_json);
    os << render_chrome_trace(app.graph, report);
    std::cout << "wrote " << opts.trace_json
              << " (open in a Chrome-tracing / Perfetto viewer)\n";
  }
}

/// Runs the full sweep. `make_app(nodes, step)` builds the weak-scaled
/// input; `num_steps` is the length of each per-node-count series.
inline void run_fig6(
    const std::string& title, int num_steps,
    const std::function<BenchmarkApp(int nodes, int step)>& make_app,
    const BenchObservability& opts = {}) {
  std::cout << "=== " << title
            << " — speedup over DefaultMapper (Shepard) ===\n";
  const int kNodeCounts[] = {1, 2, 4, 8};
  // Reporting protocol (§5): candidate evaluations average 7 runs; final
  // numbers average 31 runs of the winning mapping.
  constexpr int kReportRepeats = 31;

  for (const int nodes : kNodeCounts) {
    const MachineModel machine = make_shepard(nodes);
    Table table({"input", "default", "custom", "AM-CCD", "search evals"});
    for (int step = 0; step < num_steps; ++step) {
      const BenchmarkApp app = make_app(nodes, step);
      Simulator sim(machine, app.graph, app.sim);

      DefaultMapper default_mapper;
      const double default_s = measure_mapping(
          sim, default_mapper.map_all(app.graph, machine), kReportRepeats, 1);

      const auto custom = make_custom_mapper(app.name);
      const double custom_s = measure_mapping(
          sim, custom->map_all(app.graph, machine), kReportRepeats, 1);

      const SearchResult result = automap_optimize(
          sim, SearchAlgorithm::kCcd,
          {.rotations = 5, .repeats = 7,
           .seed = 42 + static_cast<std::uint64_t>(step),
           .prune_candidates = opts.prune,
           .export_profiles_db = false});
      const double automap_s =
          measure_mapping(sim, result.best, kReportRepeats, 2);

      table.add_row({app.input, format_seconds(default_s),
                     format_fixed(default_s / custom_s, 2),
                     format_fixed(default_s / automap_s, 2),
                     std::to_string(result.stats.evaluated)});
      if (opts.telemetry) {
        std::cout << "[" << nodes << " node(s), " << app.input << "] "
                  << render_search_telemetry(result);
      }
      // Observability exports cover the last sweep entry (largest machine
      // and input): one representative timeline/profile per bench run.
      if (nodes == kNodeCounts[3] && step == num_steps - 1)
        emit_bench_observability(machine, app, result.best, opts);
    }
    std::cout << "\n-- " << nodes << " node(s) --\n";
    table.print(std::cout);
    // Machine-readable series for plotting (AUTOMAP_CSV=1).
    if (const char* csv = std::getenv("AUTOMAP_CSV");
        csv != nullptr && csv[0] == '1') {
      table.print_csv(std::cout);
    }
  }
  std::cout << "\n";
}

}  // namespace automap::bench
