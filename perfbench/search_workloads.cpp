#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "src/automap/automap.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"

namespace perfbench {

using namespace automap;

namespace {

constexpr int kSetupRepeats = 15;
/// Search seed of the warm-up op: fixed, so every run sets up the same
/// work whatever its seed.
constexpr std::uint64_t kSetupSeed = 42;
/// Searches the traced run re-runs to replay their evaluated mappings.
constexpr std::size_t kReplaySearches = 8;

/// One op: the CCD search `automap_cli search m.machine htr.graph --seed S
/// --threads 1 [--aggregate median]` runs — paper protocol (5 rotations,
/// 7 repeats, top-5 finalists re-run 31 times), pruning on, no profiles
/// export.
SearchOptions search_options(Workload workload, std::uint64_t seed) {
  SearchOptions options{.rotations = 5,
                        .repeats = 7,
                        .seed = seed,
                        .top_k = 5,
                        .final_repeats = 31,
                        .threads = 1,
                        .prune_candidates = true,
                        .export_profiles_db = false};
  if (workload == Workload::kSearchRobust)
    options.resilience.aggregation = Aggregation::kMedian;
  return options;
}

/// Simulator counter totals of a registry wired into SimOptions::metrics.
struct SimCounts {
  std::uint64_t runs = 0;
  std::uint64_t censored = 0;
  std::uint64_t events = 0;
};

SimCounts sim_counts(MetricsRegistry& metrics) {
  const auto value = [&](const char* name) {
    return metrics.counter(name, "", /*deterministic=*/false)->value();
  };
  return {.runs = value("automap_sim_runs_total"),
          .censored = value("automap_sim_runs_censored_total"),
          .events = value("automap_sim_events_total")};
}

/// Every mapping a profiles database holds with a finite recorded value
/// (censored ones included: they ran, up to their bound).
std::vector<Mapping> profiled_mappings(const std::string& db,
                                       const TaskGraph& graph) {
  std::istringstream is(db);
  std::string line;
  std::getline(is, line);  // "profiles N"
  std::vector<Mapping> out;
  while (std::getline(is, line)) {
    if (line.rfind("entry ", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::string mean;
    fields >> mean;
    std::string text;
    for (std::size_t t = 0; t < graph.num_tasks() && std::getline(is, line); ++t)
      text += line + "\n";
    if (mean != "inf") out.push_back(Mapping::parse(text, graph));
  }
  return out;
}

/// Re-runs each search with its profiles database exported, then replays
/// every evaluated mapping with begin_runs + run_prepared and with
/// run_repeats (unbounded, the search's repeat count). Returns the first
/// search's profiles database.
std::string replay_searches(const AppInputs& in,
                            const std::vector<SearchOptions>& searches,
                            SpanRecorder& spans) {
  std::string first_db;
  SimScratch scratch;
  for (SearchOptions options : searches) {
    options.export_profiles_db = true;
    SearchResult result;
    {
      SpanRecorder::Scope span(spans, "replay.search");
      result = automap_optimize(in.sim, SearchAlgorithm::kCcd, options);
    }
    if (first_db.empty()) first_db = result.profiles_db;
    std::vector<std::uint64_t> seeds;
    for (int r = 0; r < options.repeats; ++r)
      seeds.push_back(derive_seed(options.seed, 7, r));
    for (const Mapping& mapping : profiled_mappings(result.profiles_db, in.graph)) {
      {
        SpanRecorder::Scope span(spans, "replay.begin_runs");
        span.set_work(1);
        if (!in.sim.begin_runs(mapping, scratch)) continue;
      }
      {
        SpanRecorder::Scope span(spans, "replay.run_prepared");
        std::uint64_t events = 0;
        for (const std::uint64_t seed : seeds)
          events += in.sim
                        .run_prepared(mapping, seed, scratch,
                                      std::numeric_limits<double>::infinity())
                        .events;
        span.set_work(events);
      }
      {
        SpanRecorder::Scope span(spans, "replay.run_repeats");
        std::uint64_t events = 0;
        for (const ExecutionReport& report :
             in.sim.run_repeats(mapping, seeds, scratch))
          events += report.events;
        span.set_work(events);
      }
    }
  }
  return first_db;
}

/// Rng::lognormal_factor at the simulator's sigma, in blocks of 2^20 draws.
void probe_rng(double sigma, SpanRecorder& spans) {
  constexpr std::uint64_t kDraws = 1u << 20;
  Rng rng(kMeasureSeed);
  double sink = 0.0;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    SpanRecorder::Scope span(spans, "probe.rng.lognormal");
    span.set_work(kDraws);
    for (std::uint64_t i = 0; i < kDraws; ++i) sink += rng.lognormal_factor(sigma);
  }
  if (!std::isfinite(sink)) throw std::runtime_error("lognormal draws diverged");
}

/// detail::colocation_constraints over every coordinate (task, processor
/// kind, argument, memory kind) of the starting mapping, as CCD's first
/// rotation proposes them.
void probe_colocation(const AppInputs& in, SpanRecorder& spans) {
  const TaskGraph& graph = in.graph;
  const MachineModel& machine = in.machine;
  const Mapping start = search_starting_point(graph, machine);
  // The overlap graph CCD's first rotation uses: overlap edges plus
  // same-collection edges for collections with several users.
  std::vector<OverlapEdge> edges = graph.build_overlap_graph();
  std::vector<int> users(graph.num_collections(), 0);
  for (const GroupTask& task : graph.tasks())
    for (const CollectionUse& use : task.args) ++users[use.collection.index()];
  for (const Collection& c : graph.collections())
    if (users[c.id.index()] > 1)
      edges.push_back({c.id, c.id, graph.collection_bytes(c.id)});
  const detail::OverlapMap overlap = detail::build_overlap_map(graph, edges);

  volatile std::uint64_t sink = 0;  // keeps the calls from being elided
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    SpanRecorder::Scope span(spans, "probe.colocation");
    std::uint64_t calls = 0;
    for (const GroupTask& task : graph.tasks()) {
      for (const ProcKind k : machine.proc_kinds()) {
        if (k == ProcKind::kGpu && !task.cost.has_gpu_variant()) continue;
        for (std::size_t a = 0; a < task.args.size(); ++a) {
          for (const MemKind r : machine.memories_addressable_by(k)) {
            Mapping candidate = start;
            candidate.at(task.id).proc = k;
            candidate.set_primary_memory(task.id, a, r);
            sink = sink ^ detail::colocation_constraints(
                              candidate, task.id, a, k, r, overlap, graph,
                              machine)
                              .hash();
            ++calls;
          }
        }
      }
    }
    span.set_work(calls);
  }
}

/// The search_* per-layer metrics from the spans plus the timed phase's
/// counts: `searches` ops produced `counts` and `stats`. Shares divide by
/// the mean wall time of the `op` spans, unscaled like the replay and probe
/// rates. The event-loop share uses the run_repeats replay rate when
/// `run_repeats_path`.
void search_layer_metrics(const SpanRecorder& spans, const SimCounts& counts,
                          const SearchStats& stats, double searches,
                          bool run_repeats_path,
                          std::map<std::string, double>& layer) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  std::vector<double> op_walls;
  for (const Span& op : spans.named("op")) op_walls.push_back(op.seconds());
  const double op_wall_s = mean(op_walls);
  const double events_per_op = ratio(static_cast<double>(counts.events), searches);
  layer["sim.events_per_op"] = events_per_op;
  layer["sim.runs_per_op"] = ratio(static_cast<double>(counts.runs), searches);
  layer["sim.censored_run_share"] = ratio(static_cast<double>(counts.censored),
                                          static_cast<double>(counts.runs));
  layer["sim.prepared_ns_per_event"] = ns_per_work(spans, "replay.run_prepared");
  layer["sim.begin_runs_us"] = ns_per_work(spans, "replay.begin_runs") * 1e-3;
  layer["sim.repeats_ns_per_event"] = ns_per_work(spans, "replay.run_repeats");
  const double ns_per_event = run_repeats_path
                                  ? layer["sim.repeats_ns_per_event"]
                                  : layer["sim.prepared_ns_per_event"];
  layer["sim.share"] = ratio(events_per_op * ns_per_event * 1e-9, op_wall_s);
  const double lognormal_ns = ns_per_work(spans, "probe.rng.lognormal");
  layer["support.rng.lognormal_ns"] = lognormal_ns;
  layer["support.rng.share"] = ratio(events_per_op * lognormal_ns * 1e-9, op_wall_s);
  layer["search.suggested_per_op"] = ratio(static_cast<double>(stats.suggested), searches);
  layer["search.evaluated_per_op"] = ratio(static_cast<double>(stats.evaluated), searches);
  layer["search.cache_hit_ratio"] = ratio(static_cast<double>(stats.cache_hits),
                                          static_cast<double>(stats.suggested));
  layer["search.colocation_us"] = ns_per_work(spans, "probe.colocation") * 1e-3;
  layer["search.serialize_state_ms"] = median_span(spans, "probe.serialize_state", 1e3);
  layer["support.durable.save_ms"] = median_span(spans, "probe.durable.save", 1e3);
  layer["support.json.parse_us"] = median_span(spans, "probe.json.parse", 1e6);
  layer["io.graph_parse_us"] = median_span(spans, "probe.io.graph_parse", 1e6);
  layer["io.machine_parse_us"] = median_span(spans, "probe.io.machine_parse", 1e6);
}

}  // namespace

RunResult run_search_workload(const RunConfig& config, SpanRecorder& spans) {
  const std::vector<Op> ops = make_ops(config.workload, config.seed, config.seconds);
  RunResult result;
  MetricsRegistry metrics;
  std::unique_ptr<AppInputs> in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    in.reset();
    const double slowdown = local_slowdown(1);
    const std::int64_t start = now_ns();
    in = std::make_unique<AppInputs>("htr", config.trace ? &metrics : nullptr);
    (void)automap_optimize(
        in->sim, SearchAlgorithm::kCcd,
        search_options(config.workload, kSetupSeed));
    result.setup_s.push_back((now_ns() - start) * 1e-9 / slowdown);
  }

  const SimCounts before = sim_counts(metrics);
  std::vector<SearchResult> searches(ops.size());
  std::vector<std::string> op_errors(ops.size());
  result.latency_ms.assign(ops.size(), 0.0);
  result.timed_wall_s = run_closed_loop(ops.size(), 1, [&](std::size_t i) {
    const auto op = static_cast<std::int64_t>(i);
    const double slowdown = local_slowdown(1);
    SpanRecorder::Scope span(spans, "op", 0, op);
    const std::int64_t start = now_ns();
    try {
      SpanRecorder::Scope call(spans, "automap_optimize", span.id(), op);
      searches[i] = automap_optimize(in->sim, SearchAlgorithm::kCcd,
                                     search_options(config.workload, ops[i].search_seed));
    } catch (const std::exception& e) {
      op_errors[i] = e.what();
    }
    result.latency_ms[i] = (now_ns() - start) * 1e-6 / slowdown;
  });
  const SimCounts after = sim_counts(metrics);
  result.attempted = ops.size();

  std::vector<double> speedups;
  SearchStats stats;
  result.digest = fnv1a("");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string what = "op " + std::to_string(i);
    const SearchResult& search = searches[i];
    const std::size_t before_checks = result.failures.size();
    if (!op_errors[i].empty()) {
      result.failures.push_back(what + ": " + op_errors[i]);
    } else {
      check_mapping(*in, search.best, what, result.failures);
      if (!std::isfinite(search.best_seconds) || search.stats.degraded)
        result.failures.push_back(what + ": no finalist-verified best time");
    }
    if (result.failures.size() != before_checks) {
      ++result.failed;
      continue;
    }
    result.digest = fnv1a(search.best.serialize(), result.digest);
    result.digest = fnv1a(json_double(search.best_seconds), result.digest);
    speedups.push_back(speedup_vs_default(*in, search.best));
    result.sim_search_s += search.stats.search_time_s;
    stats.suggested += search.stats.suggested;
    stats.evaluated += search.stats.evaluated;
    stats.cache_hits += search.stats.cache_hits;
  }
  const double answered = static_cast<double>(speedups.size());
  result.sim_search_s /= std::max(answered, 1.0);
  result.speedup_vs_default = geomean(speedups);

  if (config.trace) {
    std::vector<SearchOptions> replay;
    for (std::size_t i = 0; i < std::min(kReplaySearches, ops.size()); ++i)
      replay.push_back(search_options(config.workload, ops[i].search_seed));
    const std::string db = replay_searches(*in, replay, spans);
    probe_rng(in->sim.options().noise_sigma, spans);
    probe_colocation(*in, spans);
    probe_persistence(*in, db, config.run_dir, spans);
    probe_parsing(submit_request(*in, replay.front()), *in, spans);
    const SimCounts counts{.runs = after.runs - before.runs,
                           .censored = after.censored - before.censored,
                           .events = after.events - before.events};
    search_layer_metrics(spans, counts, stats, answered,
                         config.workload == Workload::kSearchRobust, result.layer);
  }
  return result;
}

}  // namespace perfbench
