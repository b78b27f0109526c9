// Component micro-benchmarks (google-benchmark): the building blocks whose
// cost determines how many candidate mappings an offline search can afford
// to try — simulator runs, noise draws, dependence analysis, overlap-graph
// construction, co-location fixed points and mapping hashing.

#include <benchmark/benchmark.h>

#include <limits>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/report/journal.hpp"
#include "src/runtime/mapper.hpp"
#include "src/support/json.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"

namespace {
using namespace automap;

const BenchmarkApp& pennant_app() {
  static const BenchmarkApp app = make_pennant(pennant_config_for(1, 1));
  return app;
}
const MachineModel& shepard1() {
  static const MachineModel m = make_shepard(1);
  return m;
}

void BM_SimulatorRunCircuit(benchmark::State& state) {
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 3));
  Simulator sim(shepard1(), app.graph, app.sim);
  DefaultMapper dm;
  const Mapping m = dm.map_all(app.graph, shepard1());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(m, ++seed));
  }
}
BENCHMARK(BM_SimulatorRunCircuit);

void BM_SimulatorRunPennant(benchmark::State& state) {
  Simulator sim(shepard1(), pennant_app().graph, pennant_app().sim);
  DefaultMapper dm;
  const Mapping m = dm.map_all(pennant_app().graph, shepard1());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(m, ++seed));
  }
}
BENCHMARK(BM_SimulatorRunPennant);

void BM_SimulatorRunHtr(benchmark::State& state) {
  const BenchmarkApp app = make_htr(htr_config_for(1, 1));
  Simulator sim(shepard1(), app.graph, app.sim);
  DefaultMapper dm;
  const Mapping m = dm.map_all(app.graph, shepard1());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(m, ++seed));
  }
}
BENCHMARK(BM_SimulatorRunHtr);

void BM_DependenceAnalysisPennant(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_pennant(pennant_config_for(1, 1)));
  }
}
BENCHMARK(BM_DependenceAnalysisPennant);

void BM_OverlapGraphBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pennant_app().graph.build_overlap_graph());
  }
}
BENCHMARK(BM_OverlapGraphBuild);

void BM_OverlapMapBuild(benchmark::State& state) {
  const auto edges = pennant_app().graph.build_overlap_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detail::build_overlap_map(pennant_app().graph, edges));
  }
}
BENCHMARK(BM_OverlapMapBuild);

void BM_ColocationFixedPoint(benchmark::State& state) {
  const TaskGraph& g = pennant_app().graph;
  std::vector<OverlapEdge> edges = g.build_overlap_graph();
  for (const Collection& c : g.collections())
    edges.push_back({c.id, c.id, g.collection_bytes(c.id)});
  const auto overlap = detail::build_overlap_map(g, edges);
  const Mapping f = search_starting_point(g, shepard1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::colocation_constraints(
        f, TaskId(0), 0, ProcKind::kGpu, MemKind::kZeroCopy, overlap, g,
        shepard1()));
  }
}
BENCHMARK(BM_ColocationFixedPoint);

void BM_MappingHash(benchmark::State& state) {
  const Mapping m = search_starting_point(pennant_app().graph, shepard1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.hash());
  }
}
BENCHMARK(BM_MappingHash);

void BM_MappingSerializeRoundTrip(benchmark::State& state) {
  const Mapping m = search_starting_point(pennant_app().graph, shepard1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mapping::parse(m.serialize(),
                                            pennant_app().graph));
  }
}
BENCHMARK(BM_MappingSerializeRoundTrip);

void BM_StencilGraphGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_stencil(stencil_config_for(4, 5)));
  }
}
BENCHMARK(BM_StencilGraphGeneration);

// Journal emission cost per candidate event (in-memory journal). The hot
// path with the journal *disabled* is a single pointer check — covered by
// the SimThroughput gate below, which runs with options.journal == nullptr.
void BM_JournalEmitCandidate(benchmark::State& state) {
  Journal journal;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    journal.event("candidate")
        .integer("seq", static_cast<long long>(++seq))
        .str("status", "evaluated")
        .num("mean", 0.0525)
        .num("clock", static_cast<double>(seq) * 0.1)
        .str("hash", hex_u64(0x9e3779b97f4a7c15ULL * seq));
  }
  benchmark::DoNotOptimize(journal.text());
}
BENCHMARK(BM_JournalEmitCandidate);

// Per-draw cost of the simulator's noise: one standard normal, and one
// log-normal factor at the default noise_sigma (each task execution and
// copy leg of a noisy run draws one). sigma is read through a volatile so
// the optimizer cannot treat it as a constant; with DoNotOptimize(sigma)
// on the lvalue instead, GCC 12 emitted no store of sigma's initial value
// and the loop ran on an uninitialized sigma.
void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_RngLognormalFactor(benchmark::State& state) {
  Rng rng(1);
  const volatile double opaque_sigma = SimOptions{}.noise_sigma;
  const double sigma = opaque_sigma;
  for (auto _ : state) benchmark::DoNotOptimize(rng.lognormal_factor(sigma));
}
BENCHMARK(BM_RngLognormalFactor);

// Simulator steady-state throughput on the search fast path (begin_runs
// once, run_prepared per repeat against a reused arena) — the quantity that
// bounds how many candidates a search can afford. The CI perf-smoke job
// runs these and the Rng entries above with
//
//   bench_micro "--benchmark_filter=SimThroughput|SimRepeats|Rng"
//               --benchmark_out=BENCH_sim.json --benchmark_out_format=json
//
// and fails on a >1.3x regression of any entry in the committed baseline
// (bench/BENCH_sim_baseline.json, checked by tools/check_bench_sim.py;
// the Rng entries have no baseline, so they are recorded but not gated).
// Counters: runs_per_s (simulated runs per wall second), events_per_second
// (scheduling events — task executions plus copy legs — per wall second;
// the roadmap's ~10M events/s goal tracks this number directly) and
// ns_per_event (its inverse in wall nanoseconds).
void sim_throughput(benchmark::State& state, const BenchmarkApp& app) {
  Simulator sim(shepard1(), app.graph, app.sim);
  DefaultMapper dm;
  const Mapping m = dm.map_all(app.graph, shepard1());
  SimScratch scratch;
  if (!sim.begin_runs(m, scratch)) {
    state.SkipWithError("default mapping failed to resolve");
    return;
  }
  std::uint64_t seed = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const ExecutionReport& rep = sim.run_prepared(
        m, ++seed, scratch, std::numeric_limits<double>::infinity());
    // True event count from the run itself: one per task execution plus one
    // per copy leg — the denominator of the ~10M events/s roadmap goal.
    events += rep.events;
    benchmark::DoNotOptimize(&rep);
  }
  const double runs = static_cast<double>(state.iterations());
  const double ev = static_cast<double>(events);
  state.counters["runs_per_s"] =
      benchmark::Counter(runs, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] =
      benchmark::Counter(ev, benchmark::Counter::kIsRate);
  // kIsRate|kInvert reports elapsed/value; with value = events * 1e-9 that
  // is wall nanoseconds per event.
  state.counters["ns_per_event"] = benchmark::Counter(
      ev * 1e-9,
      benchmark::Counter::Flags(benchmark::Counter::kIsRate |
                                benchmark::Counter::kInvert));
}

/// Multi-seed variant: `lanes` repeats of the candidate per call through
/// Simulator::run_repeats, a loop over run_prepared's event loop that keeps
/// one report per seed; its per-run cost should match sim_throughput's.
void sim_repeats_throughput(benchmark::State& state, const BenchmarkApp& app,
                            std::size_t lanes) {
  Simulator sim(shepard1(), app.graph, app.sim);
  DefaultMapper dm;
  const Mapping m = dm.map_all(app.graph, shepard1());
  SimScratch scratch;
  if (!sim.begin_runs(m, scratch)) {
    state.SkipWithError("default mapping failed to resolve");
    return;
  }
  std::vector<std::uint64_t> seeds(lanes);
  std::uint64_t seed = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (std::uint64_t& s : seeds) s = ++seed;
    const auto reports = sim.run_repeats(
        m, seeds, scratch, std::numeric_limits<double>::infinity());
    for (const ExecutionReport& rep : reports) events += rep.events;
    benchmark::DoNotOptimize(reports.data());
  }
  const double runs =
      static_cast<double>(state.iterations()) * static_cast<double>(lanes);
  const double ev = static_cast<double>(events);
  state.counters["runs_per_s"] =
      benchmark::Counter(runs, benchmark::Counter::kIsRate);
  state.counters["events_per_second"] =
      benchmark::Counter(ev, benchmark::Counter::kIsRate);
  state.counters["ns_per_event"] = benchmark::Counter(
      ev * 1e-9,
      benchmark::Counter::Flags(benchmark::Counter::kIsRate |
                                benchmark::Counter::kInvert));
}

void BM_SimThroughputStencil(benchmark::State& state) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  sim_throughput(state, app);
}
BENCHMARK(BM_SimThroughputStencil);

void BM_SimThroughputPennant(benchmark::State& state) {
  sim_throughput(state, pennant_app());
}
BENCHMARK(BM_SimThroughputPennant);

void BM_SimThroughputHtr(benchmark::State& state) {
  const BenchmarkApp app = make_htr(htr_config_for(1, 1));
  sim_throughput(state, app);
}
BENCHMARK(BM_SimThroughputHtr);

void BM_SimRepeatsThroughputStencil(benchmark::State& state) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  sim_repeats_throughput(state, app, 7);
}
BENCHMARK(BM_SimRepeatsThroughputStencil);

void BM_SimRepeatsThroughputPennant(benchmark::State& state) {
  sim_repeats_throughput(state, pennant_app(), 7);
}
BENCHMARK(BM_SimRepeatsThroughputPennant);

}  // namespace

BENCHMARK_MAIN();
